package main

import (
	"fmt"
	"io"

	"keddah/internal/core"
	"keddah/internal/faults"
	"keddah/internal/telemetry"
	"keddah/internal/workload"
)

// federation: one op is a 4-pod × 16-worker capture on the TCP
// transport with one terasort per pod, ring cross-pod copies and one
// engine shard per pod. A transient node crash hits one pod and one
// ring pair of pods is down for good, so its copy detours through a
// relay pod.
type federation struct{ seed int64 }

const (
	fedPods    = 4
	fedWorkers = 16
)

func newFederation(cfg config) (instance, error) {
	f := &federation{seed: cfg.Seed}
	if err := warmUp(f); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *federation) close() error { return nil }

// federationInputs derives an op's cluster, runs and faults from its
// seed: which pod's worker crashes and when — between 6 s and 12 s of
// simulated time, so the crash lands in the map or the shuffle wave and
// HDFS read or shuffle fetch retries follow — and which ring pair goes
// down.
func federationInputs(seed int64) (core.ClusterSpec, []workload.RunSpec, core.CaptureOpts) {
	u := uint64(seed)
	crashPod, downPod := int(u%fedPods), int(u/fedPods%fedPods)
	auto := -1
	spec := core.ClusterSpec{
		Topology: "star", Workers: fedWorkers, Pods: fedPods,
		CrossPod: "ring", Transport: "tcp", Seed: seed,
	}
	runs := make([]workload.RunSpec, fedPods)
	for p := range runs {
		runs[p] = workload.RunSpec{
			Profile: "terasort", InputBytes: 512 << 20,
			JobName: fmt.Sprintf("ts-pod%d", p), InputPath: fmt.Sprintf("/data/ts-pod%d", p),
		}
	}
	opts := core.CaptureOpts{
		Shards: &auto,
		Faults: faults.Schedule{Faults: []faults.Fault{{
			Kind: faults.NodeCrash, Worker: crashPod*fedWorkers + 1 + int((u>>8)%(fedWorkers-1)),
			AtNs: int64(6+(u>>16)%7) * 1e9, DurationNs: 20e9,
		}}},
		InterPodFaults: []core.InterPodFault{{SrcPod: downPod, DstPod: (downPod + 1) % fedPods, AtNs: 1}},
	}
	return spec, runs, opts
}

func (f *federation) op(i int, sp spanRef) opResult {
	seed := opSeed(f.seed, i)
	if i == warmUpOp {
		seed = warmUpSeed
	}
	spec, runs, opts := federationInputs(seed)
	if sp.t != nil {
		opts.Telemetry = telemetry.New()
	}
	s := sp.child("core.capture")
	ts, results, err := core.CaptureWith(spec, runs, opts)
	s.end()
	if err != nil {
		return opResult{err: fmt.Errorf("capture: %w", err)}
	}
	flows := len(ts.Background)
	for _, r := range ts.Runs {
		flows += len(r.Records)
	}
	var started, completed, aborted int64
	if tel := opts.Telemetry; tel != nil {
		started, completed, aborted = tel.Net.FlowsStarted.Value(), tel.Net.FlowsCompleted.Value(), tel.Net.FlowsAborted.Value()
		t := sp.t
		t.add("sim.events", float64(tel.Sim.Events.Value()))
		t.add("sim.shard.windows", float64(tel.Shard.Windows.Value()))
		t.add("sim.shard.boundary_events", float64(tel.Shard.BoundaryEvents.Value()))
		t.add("sim.shard.stall_ms", tel.Shard.StallMs.Value())
		t.add("sim.shard.crit_ms", tel.Shard.CritPathMs.Value())
		var busy float64
		for _, g := range tel.ShardSet(fedPods).ShardBusyMs {
			busy += g.Value()
		}
		t.add("sim.shard.busy_ms", busy)
		t.add("netsim.tcp_rto", float64(tel.Net.TCPTimeouts.Value()))
		t.add("netsim.tcp_fast_retransmits", float64(tel.Net.TCPFastRetransmits.Value()))
		t.add("netsim.reallocs", float64(tel.Net.Reallocs.Value()))
		t.add("netsim.flows_started", float64(started))
		t.add("netsim.flows_completed", float64(completed))
		t.add("core.interpod_relayed", float64(ts.Stats.InterPodRelayed))
		t.add("hdfs.read_retries", float64(tel.HDFS.ReadRetries.Value()))
		t.add("mr.shuffle_retries", float64(tel.MR.ShuffleRetries.Value()))
	}
	var csvBytes countingWriter
	return opResult{
		flows: int64(flows),
		finish: func() (string, int64, error) {
			if len(results) != len(runs) || len(ts.Runs) < len(runs) {
				return "", 0, fmt.Errorf("captured %d results / %d runs for %d submitted", len(results), len(ts.Runs), len(runs))
			}
			for _, r := range results {
				if len(r.Rounds) == 0 {
					return "", 0, fmt.Errorf("run %s finished no round", r.Spec.JobName)
				}
			}
			if ts.Stats.InterPodRelayed == 0 {
				return "", 0, fmt.Errorf("pod pair down but no copy relayed")
			}
			if opts.Telemetry != nil && started != completed+aborted {
				return "", 0, fmt.Errorf("netsim started %d flows, completed %d + aborted %d", started, completed, aborted)
			}
			var d digest
			if err := d.add("traceset", ts.WriteJSON); err != nil {
				return "", 0, err
			}
			if err := d.add("flowcsv", func(w io.Writer) error {
				return core.WriteFlowCSV(io.MultiWriter(w, &csvBytes), ts)
			}); err != nil {
				return "", 0, err
			}
			return d.String(), csvBytes.n, nil
		},
	}
}

// countingWriter counts the bytes written through it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
