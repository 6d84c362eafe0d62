package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"keddah/internal/workload"
)

func TestGenSpecValidate(t *testing.T) {
	cases := []struct {
		name  string
		spec  GenSpec
		field string // "" = valid
	}{
		{"zero value is legal", GenSpec{}, ""},
		{"fully specified", GenSpec{Workload: "terasort", InputBytes: 1 << 30, BlockSize: 128 << 20, Reducers: 8, Workers: 16, Jobs: 4, Stagger: 0.5}, ""},
		{"negative input", GenSpec{InputBytes: -1}, "inputBytes"},
		{"negative block", GenSpec{BlockSize: -1}, "blockSize"},
		{"negative reducers", GenSpec{Reducers: -1}, "reducers"},
		{"reducers over limit", GenSpec{Reducers: maxSpecReducers + 1}, "reducers"},
		{"negative workers", GenSpec{Workers: -1}, "workers"},
		{"workers over limit", GenSpec{Workers: maxSpecWorkers + 1}, "workers"},
		{"negative jobs", GenSpec{Jobs: -1}, "jobs"},
		{"jobs over limit", GenSpec{Jobs: maxSpecJobs + 1}, "jobs"},
		{"NaN stagger", GenSpec{Stagger: math.NaN()}, "stagger"},
		{"infinite stagger", GenSpec{Stagger: math.Inf(1)}, "stagger"},
		{"negative stagger is legal (clamped)", GenSpec{Stagger: -2}, ""},
		{"map-count overflow", GenSpec{InputBytes: math.MaxInt64 - 1, BlockSize: 2}, "inputBytes"},
		{"absurd map count", GenSpec{InputBytes: math.MaxInt64 / 2, BlockSize: 1}, "inputBytes"},
		{"huge input at sane block size", GenSpec{InputBytes: 1 << 50, BlockSize: 128 << 20, Workload: "t"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			checkSpecErr(t, err, tc.field, "GenSpec")
		})
	}
}

func TestMixSpecValidate(t *testing.T) {
	w := map[string]float64{"terasort": 1}
	cases := []struct {
		name  string
		spec  MixSpec
		field string
	}{
		{"minimal valid", MixSpec{Weights: w}, ""},
		{"NaN rate", MixSpec{Weights: w, JobsPerMinute: math.NaN()}, "jobsPerMinute"},
		{"negative rate", MixSpec{Weights: w, JobsPerMinute: -1}, "jobsPerMinute"},
		{"infinite window", MixSpec{Weights: w, WindowSecs: math.Inf(1)}, "windowSecs"},
		{"negative window", MixSpec{Weights: w, WindowSecs: -1}, "windowSecs"},
		{"NaN scale", MixSpec{Weights: w, InputScale: math.NaN()}, "inputScale"},
		{"negative scale", MixSpec{Weights: w, InputScale: -0.5}, "inputScale"},
		{"negative workers", MixSpec{Weights: w, Workers: -1}, "workers"},
		{"workers over limit", MixSpec{Weights: w, Workers: maxSpecWorkers + 1}, "workers"},
		{"no weights", MixSpec{}, "weights"},
		{"NaN weight", MixSpec{Weights: map[string]float64{"t": math.NaN()}}, "weights"},
		{"negative weight", MixSpec{Weights: map[string]float64{"t": -1}}, "weights"},
		{"unbounded arrivals", MixSpec{Weights: w, JobsPerMinute: 1e12, WindowSecs: 1e6}, "jobsPerMinute"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			checkSpecErr(t, err, tc.field, "MixSpec")
		})
	}
}

func TestClusterSpecValidate(t *testing.T) {
	cases := []struct {
		name  string
		spec  ClusterSpec
		field string // "" = valid
	}{
		{"zero value is legal", ClusterSpec{}, ""},
		{"fully specified", ClusterSpec{Topology: "multirack", Workers: 16, Racks: 4, HostGbps: 1, UplinkGbps: 10,
			FatTreeK: 4, BlockSize: 64 << 20, Replication: 2, Pods: 4, Shards: 4}, ""},
		{"auto shards", ClusterSpec{Pods: 4, Shards: -1}, ""},
		{"one shard on a single pod", ClusterSpec{Shards: 1}, ""},
		{"negative workers", ClusterSpec{Workers: -4}, "workers"},
		{"negative pods", ClusterSpec{Pods: -3}, "pods"},
		{"negative racks", ClusterSpec{Racks: -1}, "racks"},
		{"negative fat-tree arity", ClusterSpec{FatTreeK: -4}, "fatTreeK"},
		{"negative replication", ClusterSpec{Replication: -1}, "replication"},
		{"negative block size", ClusterSpec{BlockSize: -1}, "blockSize"},
		{"negative host capacity", ClusterSpec{HostGbps: -1}, "hostGbps"},
		{"NaN host capacity", ClusterSpec{HostGbps: math.NaN()}, "hostGbps"},
		{"infinite uplink", ClusterSpec{UplinkGbps: math.Inf(1)}, "uplinkGbps"},
		{"negative uplink", ClusterSpec{UplinkGbps: -10}, "uplinkGbps"},
		{"shards below auto", ClusterSpec{Pods: 4, Shards: -2}, "shards"},
		{"shards above pods", ClusterSpec{Pods: 4, Shards: 5}, "shards"},
		{"shards on a single pod", ClusterSpec{Shards: 2}, "shards"},
		{"odd fat-tree arity", ClusterSpec{Topology: "fattree", FatTreeK: 3}, "fatTreeK"},
		{"odd arity off the fat tree is ignored", ClusterSpec{FatTreeK: 3}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkSpecErr(t, tc.spec.Validate(), tc.field, "ClusterSpec")
		})
	}
}

// TestCaptureAndReplayRejectBadSpecs: validation runs inside CaptureWith
// and Replay, before any simulation, so no caller can bypass it.
func TestCaptureAndReplayRejectBadSpecs(t *testing.T) {
	run := func(input, block int64) error {
		_, _, err := Capture(ClusterSpec{Workers: 4, BlockSize: block}, []workload.RunSpec{{Profile: "terasort", InputBytes: input}})
		return err
	}
	_, _, err := Capture(ClusterSpec{Workers: -4}, nil)
	checkSpecErr(t, err, "workers", "ClusterSpec")
	_, _, err = Replay(nil, ClusterSpec{HostGbps: math.Inf(1)})
	checkSpecErr(t, err, "hostGbps", "ClusterSpec")
	checkSpecErr(t, run(-1, 0), "inputBytes", "RunSpec")
	checkSpecErr(t, run(math.MaxInt64, 1<<20), "inputBytes", "RunSpec") // absurd map count

	// A zero-byte run reads only a dataset an earlier run on its pod
	// ingests; otherwise HDFS would be asked for an empty file.
	checkSpecErr(t, run(0, 0), "inputBytes", "RunSpec")
	shared := []workload.RunSpec{
		{Profile: "terasort", InputBytes: 4 << 20, InputPath: "/d"},
		{Profile: "terasort", InputPath: "/d"},
	}
	if _, _, err := Capture(ClusterSpec{Workers: 4}, shared); err != nil {
		t.Fatalf("zero-byte run re-reading an ingested dataset: %v", err)
	}
	_, _, err = Capture(ClusterSpec{Workers: 4, Pods: 2}, shared) // run 1 lands on pod 1
	checkSpecErr(t, err, "inputBytes", "RunSpec")

	// The Shards override is validated with the spec it overrides.
	bad := -5
	_, _, err = CaptureWith(ClusterSpec{Workers: 4, Pods: 2}, nil, CaptureOpts{Shards: &bad})
	checkSpecErr(t, err, "shards", "ClusterSpec")
	// HDFS cannot place more replicas than there are DataNodes: the
	// default 3 on two workers, and 2 on a k=2 fat tree's one worker.
	_, _, err = Capture(ClusterSpec{Workers: 2}, nil)
	checkSpecErr(t, err, "replication", "ClusterSpec")
	_, _, err = Capture(ClusterSpec{Topology: "fattree", FatTreeK: 2, Replication: 2}, nil)
	checkSpecErr(t, err, "replication", "ClusterSpec")
}

func TestInputBytesFromGiB(t *testing.T) {
	if b, err := InputBytesFromGiB(0.25); err != nil || b != 256<<20 {
		t.Fatalf("InputBytesFromGiB(0.25) = %d, %v; want %d", b, err, 256<<20)
	}
	for _, gb := range []float64{-1, 1e12, math.Inf(1), math.NaN()} { // 1e12 GiB overflows int64 bytes
		_, err := InputBytesFromGiB(gb)
		checkSpecErr(t, err, "inputBytes", "RunSpec")
	}
}

func checkSpecErr(t *testing.T, err error, field, spec string) {
	t.Helper()
	if field == "" {
		if err != nil {
			t.Fatalf("unexpected rejection: %v", err)
		}
		return
	}
	if err == nil {
		t.Fatalf("accepted; want a %s.%s rejection", spec, field)
	}
	if !errors.Is(err, ErrBadSpec) {
		t.Fatalf("%v does not wrap ErrBadSpec", err)
	}
	var se *SpecError
	if !errors.As(err, &se) {
		t.Fatalf("%v is not a *SpecError", err)
	}
	if se.Spec != spec || se.Field != field {
		t.Fatalf("rejected %s.%s, want %s.%s (%v)", se.Spec, se.Field, spec, field, err)
	}
	if !strings.Contains(err.Error(), field) {
		t.Fatalf("message %q does not name the field", err)
	}
}

// TestGenerateRejectsBadSpec: validation runs inside Generate itself, so
// no caller can bypass it.
func TestGenerateRejectsBadSpec(t *testing.T) {
	model := mixModel(t)
	if _, err := model.Generate(GenSpec{Workload: "terasort", InputBytes: -1}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("Generate: %v, want ErrBadSpec", err)
	}
	if _, err := model.GenerateMix(MixSpec{Weights: map[string]float64{"terasort": math.NaN()}}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("GenerateMix: %v, want ErrBadSpec", err)
	}
	// Scaled re-validation: a legal-looking spec whose defaults imply an
	// absurd map count is still rejected.
	if _, err := model.Generate(GenSpec{Workload: "terasort", InputBytes: 1 << 40, BlockSize: 16}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("scaled validation: %v, want ErrBadSpec", err)
	}
}

// FuzzClusterSpecValidate drives small cluster specs and input sizes
// through the capture boundary. Every rejection from ClusterSpec.Validate,
// InputBytesFromGiB or CaptureWith's own checks must be a *SpecError;
// every spec and input they accept must capture without a panic and
// without an HDFS sizing error surfacing from inside the simulation.
// Link capacities come from a fixed list, bad values included: any
// positive capacity is legal, and a tiny one only makes the capture slow.
func FuzzClusterSpecValidate(f *testing.F) {
	f.Add(uint8(0), int8(4), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), uint8(0), uint8(0), 0.002)
	f.Add(uint8(1), int8(6), int8(3), int8(0), int8(1), int8(0), int8(0), int8(1), uint8(1), uint8(2), 0.003)
	f.Add(uint8(2), int8(0), int8(0), int8(0), int8(0), int8(4), int8(2), int8(0), uint8(1), uint8(0), 0.001)
	f.Add(uint8(0), int8(3), int8(0), int8(3), int8(-1), int8(0), int8(1), int8(2), uint8(0), uint8(0), 0.002)
	f.Add(uint8(0), int8(2), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), uint8(0), uint8(0), 0.0)
	f.Add(uint8(0), int8(-4), int8(0), int8(2), int8(5), int8(0), int8(0), int8(0), uint8(5), uint8(4), 1e12)
	capacities := []float64{0, 1, 10, 0.5, -1, math.NaN(), math.Inf(1)}
	f.Fuzz(func(t *testing.T, topo uint8, workers, racks, pods, shards, fatTreeK, replication, blockMiB int8,
		host, uplink uint8, inputGiB float64) {
		spec := ClusterSpec{
			Topology:    []string{"star", "multirack", "fattree"}[topo%3],
			Workers:     int(workers % 9),
			Racks:       int(racks % 4),
			Pods:        int(pods % 4),
			Shards:      int(shards % 5),
			FatTreeK:    int(fatTreeK % 5),
			Replication: int(replication % 5),
			BlockSize:   int64(blockMiB%5) << 20,
			HostGbps:    capacities[int(host)%len(capacities)],
			UplinkGbps:  capacities[int(uplink)%len(capacities)],
			Seed:        1,
		}
		mustBeSpecErr := func(what string, err error) {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("%s rejected %+v with %v, not a *SpecError", what, spec, err)
			}
		}
		if err := spec.Validate(); err != nil {
			mustBeSpecErr("Validate", err)
			return
		}
		input, err := InputBytesFromGiB(inputGiB)
		if err != nil {
			mustBeSpecErr("InputBytesFromGiB", err)
			return
		}
		// Keep the capture tiny whatever size was accepted above.
		runs := []workload.RunSpec{{Profile: "terasort", InputBytes: input % (4 << 20)}}
		if _, _, err := CaptureWith(spec, runs, CaptureOpts{}); err != nil {
			if errors.Is(err, ErrBadSpec) {
				mustBeSpecErr("CaptureWith", err)
			} else if strings.Contains(err.Error(), "hdfs:") {
				t.Fatalf("accepted spec %+v with %d input bytes failed inside HDFS: %v", spec, runs[0].InputBytes, err)
			}
		}
	})
}
