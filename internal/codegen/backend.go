package codegen

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"merlin/internal/interp"
	"merlin/internal/openflow"
	"merlin/internal/packet"
	"merlin/internal/pred"
	"merlin/internal/topo"
)

// Backend is one pluggable dataplane target: a pure renderer from the
// target-neutral Program into a device-family-native configuration.
// Implementations must be deterministic in the Program — the incremental
// compiler diffs successive artifacts, and a nondeterministic emitter
// would turn every no-op recompile into a spurious dataplane write.
type Backend interface {
	// Name is the registry key ("openflow", "p4", ...).
	Name() string
	// Emit renders the program for this target.
	Emit(t *topo.Topology, prog *Program) (Artifact, error)
	// Diff computes the install/remove delta between two of this
	// backend's artifacts. Either may be nil (treated as empty). The
	// built-in backends delegate to DiffArtifacts.
	Diff(old, new Artifact) ArtifactDiff
}

// Artifact is one backend's emitted configuration.
type Artifact interface {
	// Backend names the backend that emitted the artifact.
	Backend() string
	// Entries renders the configuration as deterministic per-device
	// entries — the displayable native form, and the unit a diff
	// installs and removes. DiffArtifacts need not call it: it compares
	// two OpenFlow artifacts rule by rule and renders only what changed.
	Entries() []Entry
}

// Entry is one rendered configuration line on one device.
type Entry struct {
	Device topo.NodeID
	Text   string
}

// ArtifactDiff is a backend's install/remove delta in its native rendered
// form.
type ArtifactDiff struct {
	Backend string
	Install []Entry
	Remove  []Entry
}

// Empty reports whether the diff changes nothing.
func (d ArtifactDiff) Empty() bool { return len(d.Install) == 0 && len(d.Remove) == 0 }

// DiffArtifacts computes the multiset delta between two artifacts of the
// same backend over their rendered entries: Install is new−old and Remove
// is old−new, each in its artifact's entry order. Pointer-identical
// artifacts (the incremental compiler shares untouched artifacts across
// results) diff as empty without rendering. Two OpenFlow artifacts (or
// one and nil) are compared by rule value, and only the rules of a
// changed class (see changedOpenFlowEntries) are rendered, with the
// queues only when they differ; the delta is the one their full Entries
// give. A queue patch's artifact (PatchOpenFlow) keeps every rule at its
// index and shares the unmoved rules' actions, so its diff compares
// those by address and counts only the moved ones.
func DiffArtifacts(backend string, old, new Artifact) ArtifactDiff {
	d := ArtifactDiff{Backend: backend}
	if old == new {
		return d
	}
	var oldE, newE []Entry
	if o, n, ok := openflowPair(old, new); ok {
		oldE, newE = changedOpenFlowEntries(o, n)
	} else {
		if old != nil {
			oldE = old.Entries()
		}
		if new != nil {
			newE = new.Entries()
		}
	}
	d.Install, d.Remove = diffEntries(newE, oldE)
	return d
}

// Built-in backend names. The four defaults together reproduce the
// paper's output: OpenFlow rules + queues, host tc and iptables commands,
// Click middlebox configurations, and end-host interpreter programs.
const (
	TargetOpenFlow = "openflow"
	TargetTC       = "tc"
	TargetClick    = "click"
	TargetHost     = "host"
)

var (
	regMu    sync.RWMutex
	registry = map[string]Backend{}
)

// Register adds a backend to the registry. It panics on an empty name or
// a duplicate registration — backends are compile-time plumbing, and a
// collision is a programming error, not a runtime condition.
func Register(b Backend) {
	name := b.Name()
	if name == "" {
		panic("codegen: Register with empty backend name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("codegen: duplicate backend " + name)
	}
	registry[name] = b
}

// Lookup returns the named backend.
func Lookup(name string) (Backend, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	b, ok := registry[name]
	return b, ok
}

// BackendModel resolves the named backend's table model for a device
// class from its TableModeler declaration. ok is false when the backend
// is unregistered or declares no model for the class — an unconstrained,
// symbolic-only target.
func BackendModel(name string, class topo.Kind) (TableModel, bool) {
	b, _ := Lookup(name)
	if tm, ok := b.(TableModeler); ok {
		return tm.TableModel(class)
	}
	return TableModel{}, false
}

// Names lists the registered backends, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DefaultTargets returns the built-in target set compiled when
// Options.Targets is unset — the original pre-registry output.
func DefaultTargets() []string {
	return []string{TargetOpenFlow, TargetTC, TargetClick, TargetHost}
}

func init() {
	Register(openflowBackend{})
	Register(tcBackend{})
	Register(clickBackend{})
	Register(hostBackend{})
}

// --- openflow ---------------------------------------------------------

// OpenFlowArtifact is the openflow backend's output: flow rules, switch
// queue reservations, and the tag allocation table.
type OpenFlowArtifact struct {
	Rules  []openflow.Rule
	Queues []QueueConfig
	Tags   map[string][]int
}

// Backend implements Artifact.
func (a *OpenFlowArtifact) Backend() string { return TargetOpenFlow }

// Section prefixes the built-in Entries methods write, so Diff.Counts can
// split a delta's entries back into queues vs rules and tc vs iptables.
const (
	queuePrefix    = "queue "
	tcPrefix       = "tc "
	iptablesPrefix = "iptables "
)

// Entries implements Artifact.
func (a *OpenFlowArtifact) Entries() []Entry {
	out := make([]Entry, 0, len(a.Rules)+len(a.Queues))
	for _, r := range a.Rules {
		out = append(out, Entry{Device: r.Switch, Text: r.String()})
	}
	return a.appendQueues(out)
}

// appendQueues appends the queue entries, which follow the rules.
func (a *OpenFlowArtifact) appendQueues(out []Entry) []Entry {
	for _, q := range a.Queues {
		out = append(out, Entry{Device: q.Switch, Text: fmt.Sprintf(queuePrefix+"port=%d q=%d min=%g", q.Port, q.Queue, q.MinBps)})
	}
	return out
}

// keyedActions is how many actions a flowClass holds inline; the class
// of a rule with more is always treated as changed. Three covers every
// op list lowering emits short of a second retag on one rule, and keeps
// flowKey at 128 bytes, the largest key a Go map stores inline: a larger
// one costs an allocation per key counted.
const keyedActions = 3

// flowClass is the part of a rule its rendered text determines: the
// switch and priority lead the text, and each value of openflow's five
// action types renders to its own token. Rules with equal text therefore
// share a class.
type flowClass struct {
	sw      topo.NodeID
	prio    int
	actions [keyedActions]openflow.Action
}

// flowKey is a rule's whole value; rules with equal keys render equal
// text. Every pred type is a comparable value struct, so the match,
// predicate included, is part of the key as it stands.
type flowKey struct {
	flowClass
	match openflow.Match
}

func classOf(r *openflow.Rule) flowClass {
	c := flowClass{sw: r.Switch, prio: r.Priority}
	copy(c.actions[:], r.Actions)
	return c
}

func keyOf(r *openflow.Rule) flowKey { return flowKey{classOf(r), r.Match} }

// sameRule reports whether two rules are equal. Rules a patched artifact
// kept share their action slice with the artifact they came from
// (PatchOpenFlow), and one whose queues alone moved shares its rule
// slice, so rules and actions compare by address first.
func sameRule(a, b *openflow.Rule) bool {
	if a == b {
		return true
	}
	if a.Switch != b.Switch || a.Priority != b.Priority || a.Match != b.Match || len(a.Actions) != len(b.Actions) {
		return false
	}
	return len(a.Actions) == 0 || &a.Actions[0] == &b.Actions[0] || slices.Equal(a.Actions, b.Actions)
}

// openflowPair returns the two sides as OpenFlow artifacts when both are
// (a nil side reads as empty).
func openflowPair(old, new Artifact) (o, n *OpenFlowArtifact, ok bool) {
	o, okOld := old.(*OpenFlowArtifact)
	n, okNew := new.(*OpenFlowArtifact)
	if !(okOld || old == nil) || !(okNew || new == nil) {
		return nil, nil, false
	}
	if o == nil {
		o = &OpenFlowArtifact{}
	}
	if n == nil {
		n = &OpenFlowArtifact{}
	}
	return o, n, true
}

// changedOpenFlowEntries renders, in entry order, the rules of every
// class whose multiset of keys differs between the two artifacts, and
// the queues when they differ. Every occurrence of a text lies in one
// class, so a text outside those classes occurs equally often on both
// sides, and the text multiset over what is rendered here installs and
// removes exactly the entries it would over the full Entries. Equal
// queue lists render to equal entries, and no rule text starts with
// queuePrefix, so they too cancel exactly and are left out.
func changedOpenFlowEntries(old, new *OpenFlowArtifact) (oldE, newE []Entry) {
	// Equal rules at the same offset from either end cancel in the count
	// below; skipping them keeps a recompile's unchanged runs out of it.
	o, n := old.Rules, new.Rules
	for len(o) > 0 && len(n) > 0 && sameRule(&o[0], &n[0]) {
		o, n = o[1:], n[1:]
	}
	for len(o) > 0 && len(n) > 0 && sameRule(&o[len(o)-1], &n[len(n)-1]) {
		o, n = o[:len(o)-1], n[:len(n)-1]
	}
	// Of equally long runs, only the pairs that differ are counted: an
	// equal pair adds one to its key's count and takes one away. A queue
	// patch (PatchOpenFlow) keeps every rule at its index, so its diff
	// counts only the rules it re-rendered.
	if len(o) == len(n) {
		var no, nn []openflow.Rule
		for i := range o {
			if !sameRule(&o[i], &n[i]) {
				no, nn = append(no, o[i]), append(nn, n[i])
			}
		}
		o, n = no, nn
	}
	changed := map[flowClass]bool{}
	// count[k] is o's number of rules with key k minus n's.
	count := make(map[flowKey]int, len(o))
	tally := func(rules []openflow.Rule, d int) {
		for i := range rules {
			r := &rules[i]
			if len(r.Actions) > keyedActions {
				changed[classOf(r)] = true
				continue
			}
			count[keyOf(r)] += d
		}
	}
	tally(o, 1)
	tally(n, -1)
	for k, c := range count {
		if c != 0 {
			changed[k.flowClass] = true
		}
	}
	var switches []bool // switches[sw]: a changed class is on sw
	for c := range changed {
		if int(c.sw) >= len(switches) {
			switches = append(switches, make([]bool, int(c.sw)+1-len(switches))...)
		}
		switches[c.sw] = true
	}
	queues := !slices.Equal(old.Queues, new.Queues)
	return old.changedEntries(changed, switches, queues), new.changedEntries(changed, switches, queues)
}

// changedEntries renders the rules whose class is in changed, then, if
// queues is set, the queues. A rule on a switch no changed class names
// (switches, indexed by switch) is passed over before its class is
// built.
func (a *OpenFlowArtifact) changedEntries(changed map[flowClass]bool, switches []bool, queues bool) []Entry {
	var out []Entry
	for i := range a.Rules {
		r := &a.Rules[i]
		if int(r.Switch) < len(switches) && switches[r.Switch] && changed[classOf(r)] {
			out = append(out, Entry{Device: r.Switch, Text: r.String()})
		}
	}
	if !queues {
		return out
	}
	return a.appendQueues(out)
}

type openflowBackend struct{}

func (openflowBackend) Name() string { return TargetOpenFlow }

func (openflowBackend) Emit(t *topo.Topology, prog *Program) (Artifact, error) {
	art := &OpenFlowArtifact{
		Rules:  make([]openflow.Rule, len(prog.Rules)),
		Queues: prog.Queues,
		Tags:   prog.Tags,
	}
	for i, r := range prog.Rules {
		art.Rules[i] = toOpenFlowRule(r)
	}
	return art, nil
}

// PatchOpenFlow renders prog's OpenFlow artifact from prev, the artifact
// of a Program whose rules equal prog's but at the indices in moved (as
// ReserveQueues reports them): prev's rules are copied, only the moved
// ones are converted again, and the queues and tags are prog's. The
// result equals what Emit gives for prog, and every rule not moved
// shares its action slice with prev's, which is never written.
func PatchOpenFlow(prev *OpenFlowArtifact, prog *Program, moved []int) *OpenFlowArtifact {
	rules := prev.Rules
	if len(moved) > 0 {
		rules = slices.Clone(rules)
		for _, i := range moved {
			rules[i] = toOpenFlowRule(prog.Rules[i])
		}
	}
	return &OpenFlowArtifact{Rules: rules, Queues: prog.Queues, Tags: prog.Tags}
}

func (b openflowBackend) Diff(old, new Artifact) ArtifactDiff {
	return DiffArtifacts(b.Name(), old, new)
}

// toOpenFlowRule maps one IR rule to its OpenFlow form. The IR match
// sentinels are defined to coincide with the OpenFlow ones (AnyPort ↔
// MatchAny, TagNone ↔ packet.VLANNone), but the mapping is written out so
// the correspondence is explicit and backend-local.
func toOpenFlowRule(r Rule) openflow.Rule {
	m := openflow.Match{
		InPort:    r.Match.InPort,
		VLAN:      r.Match.Tag,
		EthSrc:    r.Match.SrcMAC,
		EthDst:    r.Match.DstMAC,
		Predicate: r.Match.Pred,
	}
	if r.Match.InPort == AnyPort {
		m.InPort = openflow.MatchAny
	}
	switch r.Match.Tag {
	case TagAny:
		m.VLAN = openflow.MatchAny
	case TagNone:
		m.VLAN = packet.VLANNone
	}
	acts := make([]openflow.Action, len(r.Ops))
	for i, op := range r.Ops {
		switch op.Kind {
		case OpForward:
			acts[i] = openflow.Output{Port: op.Port}
		case OpForwardQueue:
			acts[i] = openflow.Enqueue{Port: op.Port, Queue: op.Queue}
		case OpSetTag:
			acts[i] = openflow.SetVLAN{VLAN: op.Tag}
		case OpClearTag:
			acts[i] = openflow.StripVLAN{}
		}
	}
	return openflow.Rule{Switch: r.Device, Priority: r.Priority, Match: m, Actions: acts}
}

// --- tc / iptables ----------------------------------------------------

// TCArtifact is the tc backend's output: host-side tc rate caps.
// IPTables stays empty — the language has no drop form — and is kept
// because the tool and experiment tables print its count.
type TCArtifact struct {
	TC       []HostCommand
	IPTables []HostCommand
}

// Backend implements Artifact.
func (a *TCArtifact) Backend() string { return TargetTC }

// Entries implements Artifact.
func (a *TCArtifact) Entries() []Entry {
	out := make([]Entry, 0, len(a.TC)+len(a.IPTables))
	for _, hc := range a.TC {
		out = append(out, Entry{Device: hc.Host, Text: tcPrefix + hc.Command})
	}
	for _, hc := range a.IPTables {
		out = append(out, Entry{Device: hc.Host, Text: iptablesPrefix + hc.Command})
	}
	return out
}

type tcBackend struct{}

func (tcBackend) Name() string { return TargetTC }

func (tcBackend) Emit(t *topo.Topology, prog *Program) (Artifact, error) {
	art := &TCArtifact{}
	for _, c := range prog.Caps {
		art.TC = append(art.TC, CapCommand(c.Host, c.Stmt, c.MaxBps))
	}
	return art, nil
}

func (b tcBackend) Diff(old, new Artifact) ArtifactDiff {
	return DiffArtifacts(b.Name(), old, new)
}

// --- click ------------------------------------------------------------

// ClickArtifact is the click backend's output: one configuration per
// placed packet-processing function instance.
type ClickArtifact struct {
	Click []ClickConfig
}

// Backend implements Artifact.
func (a *ClickArtifact) Backend() string { return TargetClick }

// Entries implements Artifact.
func (a *ClickArtifact) Entries() []Entry {
	out := make([]Entry, 0, len(a.Click))
	for _, cc := range a.Click {
		out = append(out, Entry{Device: cc.Node, Text: cc.Fn + " " + cc.Config})
	}
	return out
}

type clickBackend struct{}

func (clickBackend) Name() string { return TargetClick }

func (clickBackend) Emit(t *topo.Topology, prog *Program) (Artifact, error) {
	art := &ClickArtifact{}
	for _, f := range prog.Fns {
		art.Click = append(art.Click, ClickConfig{
			Node:   f.Node,
			Fn:     f.Fn,
			Config: fmt.Sprintf("%s :: %s(STMT %s);", f.Fn, strings.ToUpper(f.Fn), f.Stmt),
		})
	}
	return art, nil
}

func (b clickBackend) Diff(old, new Artifact) ArtifactDiff {
	return DiffArtifacts(b.Name(), old, new)
}

// --- host (end-host interpreter) --------------------------------------

// HostArtifact is the host backend's output: per-host end-host
// interpreter programs enforcing caps (and payload filters) the switch
// dataplane cannot.
type HostArtifact struct {
	Programs map[topo.NodeID]*interp.Program
}

// Backend implements Artifact.
func (a *HostArtifact) Backend() string { return TargetHost }

// Entries implements Artifact.
func (a *HostArtifact) Entries() []Entry {
	hosts := make([]topo.NodeID, 0, len(a.Programs))
	for h := range a.Programs {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	out := make([]Entry, 0, len(hosts))
	for _, h := range hosts {
		p := a.Programs[h]
		var sb strings.Builder
		sb.WriteString("program " + p.Name)
		for _, cl := range p.Clauses {
			fmt.Fprintf(&sb, " | op=%d rate=%g pred=%s", cl.Op, cl.RateBps, pred.Format(cl.Pred))
		}
		out = append(out, Entry{Device: h, Text: sb.String()})
	}
	return out
}

type hostBackend struct{}

func (hostBackend) Name() string { return TargetHost }

func (hostBackend) Emit(t *topo.Topology, prog *Program) (Artifact, error) {
	art := &HostArtifact{Programs: map[topo.NodeID]*interp.Program{}}
	for _, fn := range prog.HostFns {
		p := art.Programs[fn.Host]
		if p == nil {
			p = &interp.Program{Name: t.Node(fn.Host).Name}
			art.Programs[fn.Host] = p
		}
		p.Clauses = append(p.Clauses, interp.Clause{
			Pred: fn.Pred, Op: interp.OpRateLimit, RateBps: fn.RateBps,
		})
	}
	return art, nil
}

func (b hostBackend) Diff(old, new Artifact) ArtifactDiff {
	return DiffArtifacts(b.Name(), old, new)
}
