package codegen

import "strings"

// Diff is the device-level delta between two compiled results: the
// entries a controller must install and remove to move the dataplane from
// one compiled state to the next. It is what the incremental compiler
// returns for a policy update, so a negotiation tick touches only the
// devices it actually changed instead of reinstalling the full
// configuration (§4's dynamic-adaptation story).
type Diff struct {
	// Backends holds one native-form delta per target, keyed by backend
	// name — each computed by that backend's Diff from its own artifacts.
	Backends map[string]ArtifactDiff
}

// Empty reports whether the diff changes nothing on any backend.
func (d *Diff) Empty() bool {
	for _, bd := range d.Backends {
		if !bd.Empty() {
			return false
		}
	}
	return true
}

// Counts summarizes the diff as install/remove instruction totals in the
// Fig. 4 categories. Only the openflow, tc and click deltas are counted;
// end-host programs and non-builtin targets are not.
func (d *Diff) Counts() (install, remove Counts) {
	for name, bd := range d.Backends {
		install.add(name, bd.Install)
		remove.add(name, bd.Remove)
	}
	return install, remove
}

// add tallies one built-in backend's rendered entries, splitting the
// openflow and tc sections by the prefixes their Entries methods write.
func (c *Counts) add(backend string, es []Entry) {
	for _, e := range es {
		switch backend {
		case TargetOpenFlow:
			if strings.HasPrefix(e.Text, queuePrefix) {
				c.Queues++
			} else {
				c.OpenFlow++
			}
		case TargetTC:
			if strings.HasPrefix(e.Text, iptablesPrefix) {
				c.IPTables++
			} else {
				c.TC++
			}
		case TargetClick:
			c.Click++
		}
	}
}

// diffEntries returns the multiset differences new−old (to install) and
// old−new (to remove), each in its slice's original order.
func diffEntries(new, old []Entry) (install, remove []Entry) {
	oldCount := make(map[Entry]int, len(old))
	for _, e := range old {
		oldCount[e]++
	}
	for _, e := range new {
		if oldCount[e] > 0 {
			oldCount[e]--
			continue
		}
		install = append(install, e)
	}
	// The residual counts are exactly the old−new multiset, so the
	// removals fall out of one more pass over old.
	for _, e := range old {
		if oldCount[e] > 0 {
			oldCount[e]--
			remove = append(remove, e)
		}
	}
	return install, remove
}
