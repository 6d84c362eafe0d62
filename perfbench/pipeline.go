package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"

	"keddah/internal/core"
	"keddah/internal/flows"
	"keddah/internal/pcap"
	"keddah/internal/telemetry"
	"keddah/internal/workload"
)

// pipeline: one op is a full toolchain pass on the fluid transport —
// capture + fit of a mixed corpus, generate + replay + validate at a
// larger scale, and the keddah-capture -pcap → keddah-trace packet path.
type pipeline struct{ seed int64 }

// corpusSpec is the mixed measurement corpus: four jobs on a 16-worker
// star, the shape every stage after capture is fitted from.
func corpusSpec(seed int64) (core.ClusterSpec, []workload.RunSpec) {
	return core.ClusterSpec{Workers: 16, Seed: seed}, []workload.RunSpec{
		{Profile: "terasort", InputBytes: 1 << 30, JobName: "ts-a", InputPath: "/data/ts-a"},
		{Profile: "terasort", InputBytes: 2 << 30, JobName: "ts-b", InputPath: "/data/ts-b"},
		{Profile: "wordcount", InputBytes: 1 << 30, JobName: "wc", InputPath: "/data/wc"},
		{Profile: "pagerank", InputBytes: 512 << 20, JobName: "pr", InputPath: "/data/pr"},
	}
}

func newPipeline(cfg config) (instance, error) {
	p := &pipeline{seed: cfg.Seed}
	// Warm-up pass on its own inputs, so lazy runtime set-up and heap
	// growth happen before the first timed op.
	if err := warmUp(p); err != nil {
		return nil, err
	}
	return p, nil
}

// warmUpOp is the op index set-up runs, which no timed op uses. Its
// inputs are the same at every run seed (warmUpSeed), so set-up time
// does not vary with the seed.
const (
	warmUpOp   = -1
	warmUpSeed = 1
)

// warmUp runs the warm-up op. Its outputs are not checked: that is the
// benchmark's work, not set-up.
func warmUp(w instance) error {
	if r := w.op(warmUpOp, spanRef{id: -1, op: -1}); r.err != nil {
		return fmt.Errorf("warm-up: %w", r.err)
	}
	return nil
}

func (p *pipeline) close() error { return nil }

func (p *pipeline) op(i int, sp spanRef) opResult {
	seed := opSeed(p.seed, i)
	if i == warmUpOp {
		seed = warmUpSeed
	}
	var tel *telemetry.Telemetry
	if sp.t != nil {
		tel = telemetry.New()
	}

	// Stage 1: capture the corpus and fit it.
	spec, runs := corpusSpec(seed)
	s := sp.child("core.capture")
	a := mallocs(sp)
	ts, _, err := core.CaptureWith(spec, runs, core.CaptureOpts{Telemetry: tel})
	countAllocs(sp, "core.capture_allocs", a)
	s.end()
	if err != nil {
		return opResult{err: fmt.Errorf("capture: %w", err)}
	}
	s = sp.child("core.fit")
	a = mallocs(sp)
	model, err := core.FitWith(ts, core.FitOptions{}, tel)
	countAllocs(sp, "core.fit_allocs", a)
	s.end()
	if err != nil {
		return opResult{err: fmt.Errorf("fit: %w", err)}
	}

	// Stage 2: generate at 4× the scale, replay on a fat-tree, validate
	// against the measured terasort runs.
	s = sp.child("core.generate")
	sched, err := model.GenerateWith(core.GenSpec{
		Workload: "terasort", InputBytes: 4 << 30, Workers: 64, Jobs: 4, Seed: seed + 1,
	}, tel)
	s.end()
	if err != nil {
		return opResult{err: fmt.Errorf("generate: %w", err)}
	}
	s = sp.child("core.replay")
	a = mallocs(sp)
	replayed, _, err := core.ReplayWith(sched, core.ClusterSpec{Topology: "fattree", FatTreeK: 8, Seed: seed}, tel)
	countAllocs(sp, "core.replay_allocs", a)
	s.end()
	if err != nil {
		return opResult{err: fmt.Errorf("replay: %w", err)}
	}
	var measured []pcap.FlowRecord
	for _, r := range ts.ByWorkload()["terasort"] {
		measured = append(measured, r.Records...)
	}
	s = sp.child("core.validate")
	val := core.ValidateWith("terasort", measured, replayed, tel)
	s.end()

	// Stage 3: one terasort on a tapped cluster, packets to a trace in
	// memory, read back and reassembled into flows.
	s = sp.child("hadoop.packet_run")
	capture, err := packetRun(seed, tel)
	s.end()
	if err != nil {
		return opResult{err: fmt.Errorf("packet run: %w", err)}
	}
	s = sp.child("pcap.synth")
	packets := capture.Packets()
	s.end()
	s = sp.child("pcap.write")
	var trace bytes.Buffer
	err = writeTrace(&trace, packets)
	s.end()
	if err != nil {
		return opResult{err: err}
	}
	s = sp.child("pcap.reassemble")
	reassembled, err := reassemble(trace.Bytes())
	s.end()
	if err != nil {
		return opResult{err: err}
	}

	truth := capture.Truth()
	captured := len(ts.Background) + len(truth)
	for _, r := range ts.Runs {
		captured += len(r.Records)
	}
	if tel != nil {
		sp.t.add("sim.events", float64(tel.Sim.Events.Value()))
		sp.t.add("netsim.reallocs", float64(tel.Net.Reallocs.Value()))
		sp.t.add("netsim.flows_started", float64(tel.Net.FlowsStarted.Value()))
		sp.t.add("netsim.flows_completed", float64(tel.Net.FlowsCompleted.Value()))
		sp.t.setMax("netsim.active_flows_max", tel.Net.ActiveFlowsMax.Value())
		sp.t.add("pcap.packets", float64(len(packets)))
		sp.t.add("core.fidelity_ks", maxSizeKS(val))
	}
	return opResult{
		flows: int64(captured + len(replayed)),
		finish: func() (string, int64, error) {
			if len(replayed) != len(sched) {
				return "", 0, fmt.Errorf("replay returned %d flows for %d scheduled", len(replayed), len(sched))
			}
			if len(val.Phases) != len(flows.AllPhases) {
				return "", 0, fmt.Errorf("validation covers %d of %d phases", len(val.Phases), len(flows.AllPhases))
			}
			if err := sameFlows(truth, reassembled); err != nil {
				return "", 0, err
			}
			var d digest
			for _, part := range []struct {
				name  string
				write func(io.Writer) error
			}{
				{"traceset", ts.WriteJSON},
				{"flowcsv", func(w io.Writer) error { return core.WriteFlowCSV(w, ts) }},
				{"schedule", func(w io.Writer) error { return core.ExportCSV(w, sched) }},
				{"replay", func(w io.Writer) error { return writeRecords(w, replayed) }},
				{"validation", func(w io.Writer) error { return json.NewEncoder(w).Encode(val) }},
				{"pcap", func(w io.Writer) error { _, err := w.Write(trace.Bytes()); return err }},
			} {
				if err := d.add(part.name, part.write); err != nil {
					return "", 0, err
				}
			}
			return d.String(), int64(trace.Len()), nil
		},
	}
}

// packetRun runs one 256 MiB terasort on a 16-worker star with a buffering
// packet tap, the keddah-capture -pcap path.
func packetRun(seed int64, tel *telemetry.Telemetry) (*pcap.Capture, error) {
	cluster, err := core.ClusterSpec{Workers: 16, Seed: seed + 2}.BuildCluster()
	if err != nil {
		return nil, err
	}
	cluster.AttachTelemetry(tel)
	capture := pcap.NewCapture()
	cluster.Net.AddTap(capture)
	run := workload.RunSpec{Profile: "terasort", InputBytes: 256 << 20, JobName: "pkt", InputPath: "/data/pkt"}
	if err := workload.Run(cluster, run, 0, nil); err != nil {
		return nil, err
	}
	if _, err := cluster.RunToIdle(); err != nil {
		return nil, err
	}
	return capture, capture.Err()
}

func writeTrace(w io.Writer, packets []pcap.Packet) error {
	pw, err := pcap.NewWriter(w)
	if err != nil {
		return fmt.Errorf("pcap write: %w", err)
	}
	for _, p := range packets {
		if err := pw.WritePacket(p); err != nil {
			return fmt.Errorf("pcap write: %w", err)
		}
	}
	if err := pw.Flush(); err != nil {
		return fmt.Errorf("pcap write: %w", err)
	}
	return nil
}

// reassemble is the keddah-trace path: read a trace, rebuild flows.
func reassemble(trace []byte) ([]pcap.FlowRecord, error) {
	r, err := pcap.NewReader(bytes.NewReader(trace))
	if err != nil {
		return nil, fmt.Errorf("pcap read: %w", err)
	}
	packets, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("pcap read: %w", err)
	}
	ft := pcap.NewFlowTable(0)
	for _, p := range packets {
		ft.Add(p)
	}
	return ft.Records(), nil
}

// sameFlows checks that reassembled flows equal the ground truth as a
// multiset of (5-tuple, bytes).
func sameFlows(truth, got []pcap.FlowRecord) error {
	type kb struct {
		key   pcap.FlowKey
		bytes int64
	}
	norm := func(rs []pcap.FlowRecord) []kb {
		out := make([]kb, len(rs))
		for i, r := range rs {
			out[i] = kb{r.Key, r.Bytes}
		}
		slices.SortFunc(out, func(a, b kb) int {
			switch {
			case a.key != b.key:
				return compareKeys(a.key, b.key)
			case a.bytes < b.bytes:
				return -1
			case a.bytes > b.bytes:
				return 1
			}
			return 0
		})
		return out
	}
	if len(truth) != len(got) {
		return fmt.Errorf("reassembled %d flows, truth has %d", len(got), len(truth))
	}
	if !slices.Equal(norm(truth), norm(got)) {
		return fmt.Errorf("reassembled flows differ from truth by 5-tuple or bytes")
	}
	return nil
}

func compareKeys(a, b pcap.FlowKey) int {
	for _, d := range [...]int64{
		int64(a.Src) - int64(b.Src), int64(a.Dst) - int64(b.Dst),
		int64(a.SrcPort) - int64(b.SrcPort), int64(a.DstPort) - int64(b.DstPort),
		int64(a.Proto) - int64(b.Proto),
	} {
		if d != 0 {
			return int(d)
		}
	}
	return 0
}

func writeRecords(w io.Writer, rs []pcap.FlowRecord) error {
	for _, r := range rs {
		if _, err := fmt.Fprintf(w, "%s %s %d %d %d %d %d %s\n", r.Key.Src, r.Key.Dst,
			r.Key.SrcPort, r.Key.DstPort, r.FirstNs, r.LastNs, r.Bytes, r.Label); err != nil {
			return err
		}
	}
	return nil
}

func maxSizeKS(v core.Validation) float64 {
	var ks float64
	for _, p := range v.Phases {
		ks = max(ks, p.SizeKS)
	}
	return ks
}

// mallocs reads the allocation count when sp is traced (0 otherwise:
// reading it stops the world, which the untraced run must not pay).
func mallocs(sp spanRef) uint64 {
	if sp.t == nil {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// countAllocs adds the allocations made since before to the named count.
func countAllocs(sp spanRef, name string, before uint64) {
	if sp.t != nil {
		sp.t.add(name, float64(mallocs(sp)-before))
	}
}
