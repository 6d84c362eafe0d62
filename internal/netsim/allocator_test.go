package netsim

import (
	"math"
	"reflect"
	"testing"

	"keddah/internal/sim"
)

// buildScenario schedules nFlows pseudo-random flows (sizes, endpoints,
// arrival times derived from seed) onto the network. The same seed
// produces the identical schedule on any network, which is what lets the
// equivalence test drive two allocators in lockstep.
func buildScenario(t *testing.T, net *Network, seed int64, nFlows int) {
	t.Helper()
	hosts := net.Topology().Hosts()
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	for i := 0; i < nFlows; i++ {
		src := hosts[next(len(hosts))]
		dst := hosts[next(len(hosts))]
		if src == dst {
			dst = hosts[(int(src)+1+next(len(hosts)-1))%len(hosts)]
			if src == dst {
				continue
			}
		}
		size := int64(next(80_000_000) + 500)
		delay := sim.Time(next(2_000_000_000))
		s, d, port := src, dst, 1000+i
		net.Engine().After(delay, func() {
			if _, err := net.StartFlow(FlowSpec{Src: s, Dst: d, SrcPort: port, DstPort: 2000, SizeBytes: size}); err != nil {
				t.Error(err)
			}
		})
	}
}

// snapshotRates returns flow id → allocated rate for the active set.
func snapshotRates(n *Network) map[uint64]float64 {
	c := n.soa
	out := make(map[uint64]float64, len(c.active))
	for _, s := range c.active {
		out[c.fid[s]] = c.rate[s]
	}
	return out
}

// TestIncrementalMatchesReferenceAllocator is the allocator equivalence
// property test: for randomized topologies and flow sets (100–1000
// flows), the incremental max-min allocator and the original from-scratch
// progressive filling must produce identical rate vectors at every event,
// identical completion times, and a max-min allocation that satisfies
// CheckInvariants throughout. The six lockstep scenarios extend it onto
// the fault paths — loopback, link down/up, capacity degrade and
// AbortFlowsWhere — where the per-flow outcomes must also match exactly.
func TestIncrementalMatchesReferenceAllocator(t *testing.T) {
	star := func() (*Topology, error) { return Star(17, Gbps) }
	fatTree := func() (*Topology, error) { return FatTree(4, Gbps) }
	multiRack := func() (*Topology, error) { return MultiRack(3, 6, Gbps, 4*Gbps) }
	cases := []lockstepCase{
		{topo: "star/seed11", build: star, seed: 11, nFlows: 100, plain: true},
		{topo: "star/seed12", build: star, seed: 12, nFlows: 1000, plain: true},
		{topo: "fattree/seed21", build: fatTree, seed: 21, nFlows: 150, plain: true},
		{topo: "fattree/seed22", build: fatTree, seed: 22, nFlows: 600, plain: true},
		{topo: "multirack/seed31", build: multiRack, seed: 31, nFlows: 100, plain: true},
		{topo: "multirack/seed32", build: multiRack, seed: 32, nFlows: 400, plain: true},
	}
	for _, lc := range append(cases, lockstepCases...) {
		name := lc.name()
		incEng, inc, incRec := lc.start(t, Config{})
		refEng, ref, refRec := lc.start(t, Config{UseReferenceAllocator: true})

		steps := 0
		for {
			iOK := incEng.Step()
			rOK := refEng.Step()
			if iOK != rOK {
				t.Fatalf("%s: event streams diverged after %d steps", name, steps)
			}
			if !iOK {
				break
			}
			steps++
			if incEng.Now() != refEng.Now() {
				t.Fatalf("%s step %d: clocks diverged %v vs %v", name, steps, incEng.Now(), refEng.Now())
			}
			ir, rr := snapshotRates(inc), snapshotRates(ref)
			if len(ir) != len(rr) {
				t.Fatalf("%s step %d: active sets differ: %d vs %d flows", name, steps, len(ir), len(rr))
			}
			for id, rate := range ir {
				if refRate, ok := rr[id]; !ok || refRate != rate {
					t.Fatalf("%s step %d: flow %d rate %v (incremental) vs %v (reference)",
						name, steps, id, rate, refRate)
				}
			}
			// The incremental allocation must itself be max-min fair.
			// Skip instants where a coalesced reallocation is still
			// queued — the active set changed but rates intentionally
			// update one event later.
			if !inc.reallocPendingNow() {
				if err := inc.CheckInvariants(); err != nil {
					t.Fatalf("%s step %d: %v", name, steps, err)
				}
			}
		}
		if inc.ActiveFlows() != 0 || ref.ActiveFlows() != 0 {
			t.Errorf("%s: flows stranded: %d incremental, %d reference",
				name, inc.ActiveFlows(), ref.ActiveFlows())
		}
		if inc.Completed() != ref.Completed() || inc.AbortedFlows() != ref.AbortedFlows() || inc.TotalBytes() != ref.TotalBytes() {
			t.Errorf("%s: outcomes differ: %d/%d/%v vs %d/%d/%v", name,
				inc.Completed(), inc.AbortedFlows(), inc.TotalBytes(),
				ref.Completed(), ref.AbortedFlows(), ref.TotalBytes())
		}
		if !reflect.DeepEqual(incRec, refRec) {
			t.Errorf("%s: per-flow outcomes differ between incremental and reference", name)
		}
	}
}

func TestDurationForClampsDegenerateRates(t *testing.T) {
	if d := durationFor(0, Gbps); d != 0 {
		t.Errorf("zero bytes → %v, want 0", d)
	}
	if d := durationFor(-5, Gbps); d != 0 {
		t.Errorf("negative bytes → %v, want 0", d)
	}
	// A zero or negative rate used to produce +Inf seconds and an
	// overflowed (negative) sim.Time; it must clamp to MaxTime.
	if d := durationFor(1000, 0); d != sim.MaxTime {
		t.Errorf("zero rate → %v, want MaxTime", d)
	}
	if d := durationFor(1000, -1); d != sim.MaxTime {
		t.Errorf("negative rate → %v, want MaxTime", d)
	}
	// Tiny-but-positive rates overflow the ns conversion; clamp too.
	if d := durationFor(1e18, 1e-12); d != sim.MaxTime {
		t.Errorf("tiny rate → %v, want MaxTime", d)
	}
	if d := durationFor(1000, Gbps); d <= 0 || d >= sim.MaxTime {
		t.Errorf("normal case → %v, want small positive", d)
	}
	// 1 Gbit at 1 Gbps is exactly one second.
	if d := durationFor(125_000_000, Gbps); d != 1_000_000_000 {
		t.Errorf("1 Gbit at 1 Gbps → %v, want 1s", d)
	}
}

// TestParkedFlowRevivesOnReallocation: a flow whose rate collapses to a
// value that would overflow the horizon parks without a completion event
// but must resume when capacity frees up.
func TestParkedFlowRevivesOnReallocation(t *testing.T) {
	if got := durationFor(1, math.SmallestNonzeroFloat64); got != sim.MaxTime {
		t.Fatalf("sanity: %v", got)
	}
	topo := mustStar(t, 3, Gbps)
	eng := sim.New()
	net := NewNetwork(eng, topo, Config{})
	h := topo.Hosts()
	done := 0
	for i := 0; i < 2; i++ {
		if _, err := net.StartFlow(FlowSpec{Src: h[i], Dst: h[2], SrcPort: i, DstPort: 80, SizeBytes: 10_000_000,
			OnComplete: func(*Flow) { done++ }}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if done != 2 {
		t.Fatalf("completed %d flows, want 2", done)
	}
}
