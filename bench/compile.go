package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"

	"merlin"
	"merlin/internal/codegen"
	"merlin/internal/openflow"
	"merlin/internal/packet"
	"merlin/internal/policy"
	"merlin/internal/pred"
	"merlin/internal/topo"
)

const (
	compileWorkers = 2 // Options.Workers, sized for nproc = 2
	compileWarmups = 2 // discarded rounds before timing
	setupRepeats   = 5 // least generate+parse repeats; setup_s is their median
	setupBudget    = 250 * time.Millisecond
	maxWitnesses   = 200
)

func compileOptions(w workload) merlin.Options {
	return merlin.Options{
		NoDefault: !w.TotalityDefault,
		Workers:   compileWorkers,
		Targets:   merlin.BackendNames(),
	}
}

// drawStride spaces the corpus seeds of different -seed values apart, so
// their draws never coincide; maxDraws bounds the draws of one run.
const (
	drawStride = 64
	maxDraws   = 16
)

// generateAll generates `draws` independent draws of every scenario of the
// workload: draw d uses corpus seed seed*drawStride+d. A run compiles a new
// draw each round, so its medians describe the scenario family and depend
// little on which seed was picked.
func generateAll(w workload, seed int64, draws int) ([][]*compileInput, error) {
	ins := make([][]*compileInput, draws)
	for d := range ins {
		var err error
		if ins[d], err = generateDraw(w, seed, d); err != nil {
			return nil, err
		}
	}
	return ins, nil
}

func generateDraw(w workload, seed int64, d int) ([]*compileInput, error) {
	ins := make([]*compileInput, len(w.Scenarios))
	for i, spec := range w.Scenarios {
		in, err := generateCompile(spec, seed*drawStride+int64(d))
		if err != nil {
			return nil, err
		}
		ins[i] = in
	}
	return ins, nil
}

func compileRounds(w workload, cfg runConfig) (rounds, draws int) {
	rounds = int(math.Round(w.PerSecond * cfg.Seconds))
	if cfg.Trace {
		rounds /= 4
	}
	if rounds < 4 {
		rounds = 4
	}
	if cfg.Validate {
		rounds = 1
	}
	return rounds, min(rounds, maxDraws)
}

// runCompile measures a compile workload end to end: every scenario is
// compiled cold (a fresh Compiler) once per round on that round's draw,
// rounds interleave the scenarios so drift hits them alike, the heap is
// collected before each round so every round starts alike, and all output
// checks run outside the timed calls.
func runCompile(w workload, cfg runConfig) (*runResult, error) {
	res := newResult(w, cfg)
	repeats, warmups := setupRepeats, compileWarmups
	rounds, draws := compileRounds(w, cfg)
	if cfg.Validate {
		repeats, warmups = 1, 0
	}

	// Set-up is generate + parse of every draw, repeated until the median
	// rests on a quarter second of samples.
	var setups []float64
	for begin := time.Now(); ; {
		start := time.Now()
		for d := 0; d < draws; d++ { // one at a time: generated inputs must not set the memory peak
			if _, err := generateDraw(w, cfg.Seed, d); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(start).Seconds())
		if len(setups) >= repeats && (cfg.Validate || time.Since(begin) >= setupBudget) {
			break
		}
	}

	// The warm-up rounds compile the draws the last timed rounds compile
	// again, so at least those draws' outputs are held equal across
	// repeats.
	opts := compileOptions(w)
	lat := map[string][]float64{}
	digests := make([][]string, draws) // out_digest per draw and scenario, once compiled
	entries, tcam := make([]float64, draws), make([]float64, draws)
	for d := range digests {
		digests[d] = make([]string, len(w.Scenarios))
	}
	timedStart := time.Now()
	var busy time.Duration
	timed := 0
	for r := -warmups; r < rounds; r++ {
		// Only the round's own draw is alive while it compiles, so peak
		// memory is the compiler's and not the generator's.
		d := ((r % draws) + draws) % draws
		ins, err := generateDraw(w, cfg.Seed, d)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		for i, in := range ins {
			start := time.Now()
			out, err := merlin.Compile(in.Policy, in.Topo, in.Place, opts)
			dt := time.Since(start)
			res.attempt()
			if err != nil {
				res.fail("%s: compile: %v", in.Name, err)
				continue
			}
			if r >= 0 {
				lat[in.Name] = append(lat[in.Name], ms(dt))
				busy += dt
				timed++
			}
			// Outside the timed call: the first compile of a draw is
			// checked and counted, and its last must reproduce the digest
			// (rendering every entry costs as much as a small compile, so
			// the repeats in between are not digested). Results are not
			// kept, so peak memory is the compiles' own.
			if digests[d][i] != "" {
				if r >= rounds-draws && outDigest(out) != digests[d][i] {
					res.fail("%s draw %d: out_digest differs between repeats", in.Name, d)
				}
				continue
			}
			digests[d][i] = outDigest(out)
			for name, art := range out.Outputs {
				n := float64(len(art.Entries()))
				entries[d] += n
				if name == "tcam" {
					tcam[d] += n
				}
			}
			checkCompile(res, in, out)
		}
	}
	timedWall := time.Since(timedStart)
	rss := peakRSSMB(0)
	if res.Failed > 0 {
		return res, nil
	}
	for i, spec := range w.Scenarios {
		l := lat[spec.name()]
		res.note("%-20s %-44s %12.3f ms      n=%d over %d draws, draw 0 out_digest=%.12s",
			w.Name, "scenario:"+spec.name(), median(l), len(l), draws, digests[0][i])
	}
	res.set("setup_s", median(setups), len(setups))
	res.set("op_p50_ms", classMedian(lat), timed)
	res.set("op_p90_ms", percentile(pooled(lat), 90), timed)
	res.set("ops_per_s", float64(timed)/busy.Seconds(), timed)
	res.set("peak_rss_mb", rss, 1)
	res.set("out_entries", median(entries), draws)
	res.extra("tcam_entries", median(tcam), "count", draws)
	res.extra("witness_misdelivered", float64(res.misdelivered), "count", res.Attempted)
	res.extra("timed_wall_s", timedWall.Seconds(), "s", 1)
	return res, nil
}

// classMedian is the typical latency of a workload whose ops fall into
// classes (compile scenarios, request classes): the geometric mean of the
// classes' medians, each class weighted by its share of the ops. One class
// gives the plain median; equal classes give the plain geometric mean.
// Unlike the median of the pooled samples, it does not jump when that
// median sits in the gap between two classes.
func classMedian(lat map[string][]float64) float64 {
	total, sum := 0.0, 0.0
	for _, l := range lat {
		if len(l) > 0 {
			total += float64(len(l))
			sum += float64(len(l)) * math.Log(median(l))
		}
	}
	if total == 0 {
		return 0
	}
	return math.Exp(sum / total)
}

// pooled joins the classes' samples.
func pooled(lat map[string][]float64) []float64 {
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	return all
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// outDigest is the SHA-256 of every target's artifact entries, sorted — the
// byte-identity fingerprint of one compile's output.
func outDigest(res *merlin.Result) string {
	var lines []string
	for name, art := range res.Outputs {
		for _, e := range art.Entries() {
			lines = append(lines, name+"|"+strconv.Itoa(int(e.Device))+"|"+e.Text)
		}
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkCompile validates one scenario's compiled output against the
// generator's descriptors and an interpreter that shares no code with the
// emitters: every guarantee's path stays inside its region and crosses its
// waypoints, and one witness packet per statement, injected through
// internal/openflow's Network, is delivered to the statement's destination.
func checkCompile(res *runResult, in *compileInput, out *merlin.Result) {
	via := map[string][]string{}
	if sc := in.Scenario; sc != nil {
		for _, g := range sc.Guarantee {
			via[g.ID] = g.Via
			if g.RateBps <= 0 {
				continue
			}
			res.attempt()
			path := out.Paths[g.ID]
			switch {
			case len(path) < 2 || path[0] != g.Src || path[len(path)-1] != g.Dst:
				res.fail("%s: guarantee %s: path %v does not join %s to %s", in.Name, g.ID, path, g.Src, g.Dst)
			case len(g.Region) > 0 && !within(path, g.Region):
				res.fail("%s: guarantee %s: path %v leaves its region", in.Name, g.ID, path)
			case !crosses(path, g.Via, in.Place):
				res.fail("%s: guarantee %s: path %v misses waypoints %v", in.Name, g.ID, path, g.Via)
			}
		}
	}

	of, ok := out.Outputs[codegen.TargetOpenFlow].(*codegen.OpenFlowArtifact)
	if !ok {
		res.attempt()
		res.fail("%s: no openflow artifact", in.Name)
		return
	}
	net := openflow.NewNetwork(in.Topo)
	net.Install(of.Rules)
	for _, mb := range in.Topo.Middleboxes() {
		net.AddMiddleboxFunction(mb, openflow.Identity)
	}
	ids := in.Topo.Identities()
	hosts := in.Topo.Hosts()
	stmts := out.Policy.Statements
	stride := (len(stmts) + maxWitnesses - 1) / maxWitnesses
	for i := 0; i < len(stmts); i += stride {
		s := stmts[i]
		pkt, src, dst, pinned, ok := witness(s, ids, hosts)
		if !ok || shadowed(pkt, stmts[:i]) {
			continue // no packet only this statement classifies
		}
		res.attempt()
		tr := net.Inject(src, pkt)
		hops := tr.HopNames(in.Topo)
		switch {
		case tr.Delivered && tr.DeliveredTo != dst && !pinned:
			// The statement names no destination, so there is no Dst to
			// hold it to; where its traffic lands is reported, not failed
			// (see README, "What the benchmark surfaces").
			res.misdelivered++
		case !tr.Delivered || tr.DeliveredTo != dst:
			res.fail("%s: statement %s: witness not delivered: %q via %v", in.Name, s.ID, tr.Dropped, hops)
		case !crosses(hops, via[s.ID], in.Place):
			res.fail("%s: statement %s: witness path %v misses waypoints %v", in.Name, s.ID, hops, via[s.ID])
		}
	}
}

func within(path, region []string) bool {
	set := make(map[string]bool, len(region))
	for _, n := range region {
		set[n] = true
	}
	for _, n := range path {
		if !set[n] {
			return false
		}
	}
	return true
}

// crosses reports whether path visits, in order, a location able to host
// each waypoint function.
func crosses(path, fns []string, place merlin.Placement) bool {
	at := 0
	for _, fn := range fns {
		found := false
		for ; at < len(path) && !found; at++ {
			for _, loc := range place[fn] {
				if path[at] == loc {
					found = true
				}
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// witness builds a packet the statement's predicate matches, from the
// positive tests of its first cube: pinned endpoints where the predicate
// names them, the first and last host otherwise. The totality default is a
// conjunction of negations, so its witness pins nothing.
//
// pinned reports whether the predicate names the destination.
func witness(s policy.Statement, ids *topo.IdentityTable, hosts []topo.NodeID) (pkt *packet.Packet, src, dst topo.NodeID, pinned, ok bool) {
	var cube []pred.Test
	if s.ID != policy.DefaultStatementID {
		cubes, err := pred.PositiveCubes(s.Predicate)
		if err != nil || len(cubes) == 0 {
			return nil, 0, 0, false, false
		}
		cube = cubes[0]
	}
	src, dst = hosts[0], hosts[len(hosts)-1]
	port, udp := uint16(9), false
	for _, t := range cube {
		switch t.Field {
		case "eth.src", "ip.src":
			if n, ok := ids.Resolve(t.Value); ok {
				src = n
			}
		case "eth.dst", "ip.dst":
			if n, ok := ids.Resolve(t.Value); ok {
				dst, pinned = n, true
			}
		case "tcp.dst", "udp.dst":
			v, err := strconv.Atoi(t.Value)
			if err != nil {
				return nil, 0, 0, false, false
			}
			port, udp = uint16(v), t.Field == "udp.dst"
		default:
			return nil, 0, 0, false, false
		}
	}
	if src == dst {
		return nil, 0, 0, false, false
	}
	si, _ := ids.Of(src)
	di, _ := ids.Of(dst)
	mk := packet.TCPPacket
	if udp {
		mk = packet.UDPPacket
	}
	pkt = mk(si.MAC, di.MAC, si.IP, di.IP, 4242, port, nil)
	if !pkt.Matches(s.Predicate) {
		return nil, 0, 0, false, false
	}
	return pkt, src, dst, pinned, true
}

// shadowed reports whether an earlier statement claims the packet under
// first-match semantics.
func shadowed(pkt *packet.Packet, earlier []policy.Statement) bool {
	fields := pkt.Fields()
	for _, s := range earlier {
		if pred.Matches(s.Predicate, fields) {
			return true
		}
	}
	return false
}
