package netsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"testing"

	"keddah/internal/golden"
	"keddah/internal/sim"
)

// flowOutcome is the observable end state of one flow, recorded by the
// lockstep test's completion callbacks.
type flowOutcome struct {
	End         sim.Time
	Aborted     bool
	Transferred int64
	Segments    []RateSegment
}

// lockstepScenario schedules a deterministic pseudo-random flow mix —
// including loopback transfers — and, when chaos is on, a deterministic
// fault schedule (link down/up, capacity degrade/restore, endpoint kills)
// onto the network. Every flow records its outcome into rec keyed by flow
// id; ids are assigned in start order, so two runs' maps line up.
func lockstepScenario(t *testing.T, net *Network, seed int64, nFlows int, chaos bool, rec map[uint64]flowOutcome) {
	t.Helper()
	hosts := net.Topology().Hosts()
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	eng := net.Engine()
	for i := 0; i < nFlows; i++ {
		src := hosts[next(len(hosts))]
		dst := hosts[next(len(hosts))] // src == dst exercises loopback
		size := int64(next(60_000_000) + 500)
		delay := sim.Time(next(1_500_000_000))
		spec := FlowSpec{Src: src, Dst: dst, SrcPort: 1000 + i, DstPort: 2000, SizeBytes: size}
		record := func(f *Flow) {
			rec[f.ID()] = flowOutcome{End: f.End(), Aborted: f.Aborted(), Transferred: f.Transferred(), Segments: f.Segments()}
		}
		spec.OnComplete = record
		spec.OnAbort = record
		eng.After(delay, func() {
			if _, err := net.StartFlow(spec); err != nil {
				t.Error(err)
			}
		})
	}
	if !chaos {
		return
	}
	nl := net.Topology().NumLinks()
	for i := 0; i < 6; i++ {
		lid := LinkID(next(nl))
		at := sim.Time(next(1_200_000_000) + 100_000_000)
		dur := sim.Time(next(500_000_000) + 50_000_000)
		eng.After(at, func() {
			if err := net.SetLinkState(lid, false); err != nil {
				t.Error(err)
			}
		})
		eng.After(at+dur, func() {
			if err := net.SetLinkState(lid, true); err != nil {
				t.Error(err)
			}
		})
	}
	for i := 0; i < 3; i++ {
		lid := LinkID(next(nl))
		at := sim.Time(next(1_200_000_000) + 100_000_000)
		dur := sim.Time(next(500_000_000) + 50_000_000)
		eng.After(at, func() {
			if err := net.SetLinkCapacityScale(lid, 0.25); err != nil {
				t.Error(err)
			}
		})
		eng.After(at+dur, func() {
			if err := net.SetLinkCapacityScale(lid, 1); err != nil {
				t.Error(err)
			}
		})
	}
	for i := 0; i < 2; i++ {
		mod := 7 + i
		at := sim.Time(next(1_500_000_000) + 200_000_000)
		eng.After(at, func() {
			net.AbortFlowsWhere(func(s FlowSpec) bool { return s.SrcPort%13 == mod })
		})
	}
}

// lockstepCase is one seeded flow scenario: lockstepScenario traffic
// (loopback included, plus link down/up, capacity degrade/restore and
// AbortFlowsWhere kills when chaos is on), or buildScenario's fault-free
// traffic when plain is set.
type lockstepCase struct {
	topo   string
	build  func() (*Topology, error)
	seed   int64
	nFlows int
	chaos  bool
	plain  bool
}

func (lc lockstepCase) name() string {
	if lc.chaos {
		return lc.topo + "/chaos"
	}
	return lc.topo
}

// start builds the case's network and schedules its traffic and faults.
func (lc lockstepCase) start(t *testing.T, cfg Config) (*sim.Engine, *Network, map[uint64]flowOutcome) {
	t.Helper()
	topo, err := lc.build()
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := NewNetwork(eng, topo, cfg)
	rec := make(map[uint64]flowOutcome, lc.nFlows)
	if lc.plain {
		buildScenario(t, net, lc.seed, lc.nFlows)
	} else {
		lockstepScenario(t, net, lc.seed, lc.nFlows, lc.chaos, rec)
	}
	return eng, net, rec
}

var lockstepCases = func() []lockstepCase {
	star := func() (*Topology, error) { return Star(9, Gbps) }
	fatTree := func() (*Topology, error) { return FatTree(4, Gbps) }
	multiRack := func() (*Topology, error) { return MultiRack(3, 5, Gbps, 4*Gbps) }
	return []lockstepCase{
		{topo: "star", build: star, seed: 41, nFlows: 200},
		{topo: "star", build: star, seed: 42, nFlows: 150, chaos: true},
		{topo: "fattree", build: fatTree, seed: 51, nFlows: 300},
		{topo: "fattree", build: fatTree, seed: 52, nFlows: 250, chaos: true},
		{topo: "multirack", build: multiRack, seed: 61, nFlows: 200},
		{topo: "multirack", build: multiRack, seed: 62, nFlows: 200, chaos: true},
	}
}()

// outcomeDigest hashes every flow's outcome in flow-id order, then the
// network's aggregate counters.
func outcomeDigest(net *Network, rec map[uint64]flowOutcome) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	ids := make([]uint64, 0, len(rec))
	for id := range rec {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		o := rec[id]
		put(id)
		put(uint64(o.End))
		if o.Aborted {
			put(1)
		} else {
			put(0)
		}
		put(uint64(o.Transferred))
		put(uint64(len(o.Segments)))
		for _, seg := range o.Segments {
			put(uint64(seg.Start))
			put(math.Float64bits(seg.RateBps))
		}
	}
	put(net.Completed())
	put(net.AbortedFlows())
	put(math.Float64bits(net.TotalBytes()))
	return hex.EncodeToString(h.Sum(nil))
}

// TestNetsimGoldenDigest pins the flow core's observable output — per-flow
// end time, abort flag, transferred bytes and rate history, plus the
// completed/aborted/byte aggregates — on the six fault-path scenarios to
// digests committed in testdata/lockstep.digest. Any trajectory change,
// however small, shows up as a digest mismatch naming the scenario. Each
// run must also finish every flow exactly once, strand none, and end
// structurally sound.
func TestNetsimGoldenDigest(t *testing.T) {
	var out bytes.Buffer
	for _, lc := range lockstepCases {
		t.Run(lc.name(), func(t *testing.T) {
			eng, net, rec := lc.start(t, Config{})
			if _, err := eng.RunAll(); err != nil {
				t.Fatal(err)
			}
			if len(rec) != lc.nFlows || net.ActiveFlows() != 0 {
				t.Fatalf("%d of %d flows finished, %d stranded", len(rec), lc.nFlows, net.ActiveFlows())
			}
			if err := net.VerifyState(); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%s %s\n", lc.name(), outcomeDigest(net, rec))
		})
	}
	golden.Check(t, "lockstep.digest", out.Bytes())
}
