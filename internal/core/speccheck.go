package core

import (
	"errors"
	"fmt"
	"math"

	"keddah/internal/hadoop/hdfs"
	"keddah/internal/workload"
)

// This file validates capture and generation specs up front, so
// malformed requests — negative cluster sizes a default would silently
// replace, NaN rates smuggled in through JSON, negative sizes, worker
// counts that would explode structural scaling — fail fast with a typed
// error instead of surfacing as a deep simulation or generation failure
// (or an enormous allocation) minutes later. keddah-serve maps ErrBadSpec
// to HTTP 400.

// ErrBadSpec is the sentinel wrapped by every spec-validation failure.
var ErrBadSpec = errors.New("core: invalid spec")

// SpecError reports one invalid spec field. It wraps ErrBadSpec, so
// errors.Is(err, ErrBadSpec) identifies validation failures without
// string matching.
type SpecError struct {
	Spec   string // "GenSpec", "MixSpec", "ClusterSpec" or "RunSpec"
	Field  string
	Reason string
}

// Error implements error.
func (e *SpecError) Error() string {
	return fmt.Sprintf("core: invalid spec: %s.%s %s", e.Spec, e.Field, e.Reason)
}

// Unwrap makes errors.Is(err, ErrBadSpec) true.
func (e *SpecError) Unwrap() error { return ErrBadSpec }

// Structural-scaling guards. Counts above these bounds cannot describe a
// measured Hadoop deployment; they only arise from malformed or hostile
// requests, and admitting them turns one request into an
// out-of-memory-sized allocation.
const (
	maxSpecWorkers  = 1 << 20 // hosts traffic is spread over
	maxSpecJobs     = 1 << 20 // job instances per request
	maxSpecReducers = 1 << 20 // reduce fan-in
	maxSpecMaps     = 1 << 26 // map tasks (input/block ratio)
	maxMixArrivals  = 1 << 20 // expected arrivals in a mix window
)

func badFloat(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

func genErr(field, reason string) error {
	return &SpecError{Spec: "GenSpec", Field: field, Reason: reason}
}

func mixErr(field, reason string) error {
	return &SpecError{Spec: "MixSpec", Field: field, Reason: reason}
}

// Validate rejects malformed GenSpec fields. Zero values are legal
// (withDefaults fills them in); what is rejected is anything no default
// can repair: negative counts and sizes, non-finite stagger, and
// magnitudes whose structural scaling would overflow or exhaust memory.
// Generate calls this first, so every path — CLI, API, library — fails
// fast with an error wrapping ErrBadSpec.
func (g GenSpec) Validate() error {
	switch {
	case g.InputBytes < 0:
		return genErr("inputBytes", "is negative")
	case g.BlockSize < 0:
		return genErr("blockSize", "is negative")
	case g.Reducers < 0:
		return genErr("reducers", "is negative")
	case g.Reducers > maxSpecReducers:
		return genErr("reducers", fmt.Sprintf("%d exceeds the %d limit", g.Reducers, maxSpecReducers))
	case g.Workers < 0:
		return genErr("workers", "is negative")
	case g.Workers > maxSpecWorkers:
		return genErr("workers", fmt.Sprintf("%d exceeds the %d limit", g.Workers, maxSpecWorkers))
	case g.Jobs < 0:
		return genErr("jobs", "is negative")
	case g.Jobs > maxSpecJobs:
		return genErr("jobs", fmt.Sprintf("%d exceeds the %d limit", g.Jobs, maxSpecJobs))
	case badFloat(g.Stagger):
		return genErr("stagger", "is not finite")
	}
	if g.InputBytes > 0 && g.BlockSize > 0 {
		if g.InputBytes > math.MaxInt64-g.BlockSize {
			return genErr("inputBytes", "overflows the map count")
		}
		if maps := (g.InputBytes + g.BlockSize - 1) / g.BlockSize; maps > maxSpecMaps {
			return genErr("inputBytes", fmt.Sprintf("implies %d maps, above the %d limit", maps, maxSpecMaps))
		}
	}
	return nil
}

// validateScaled re-checks the structural bounds after model defaults
// were substituted (a request may omit BlockSize and still imply an
// absurd map count against the model's reference block size).
func (g GenSpec) validateScaled() error {
	if g.BlockSize > 0 {
		if maps := (g.InputBytes + g.BlockSize - 1) / g.BlockSize; maps > maxSpecMaps {
			return genErr("inputBytes", fmt.Sprintf("implies %d maps at block size %d, above the %d limit", maps, g.BlockSize, maxSpecMaps))
		}
	}
	if g.Reducers > maxSpecReducers {
		return genErr("reducers", fmt.Sprintf("scales to %d, above the %d limit", g.Reducers, maxSpecReducers))
	}
	return nil
}

// Validate rejects malformed MixSpec fields: non-finite or negative
// rates, windows and scales, weight values that are not finite or are
// negative, and rate×window products that would schedule an unbounded
// number of arrivals. GenerateMix calls this first.
func (m MixSpec) Validate() error {
	switch {
	case badFloat(m.JobsPerMinute):
		return mixErr("jobsPerMinute", "is not finite")
	case m.JobsPerMinute < 0:
		return mixErr("jobsPerMinute", "is negative")
	case badFloat(m.WindowSecs):
		return mixErr("windowSecs", "is not finite")
	case m.WindowSecs < 0:
		return mixErr("windowSecs", "is negative")
	case badFloat(m.InputScale):
		return mixErr("inputScale", "is not finite")
	case m.InputScale < 0:
		return mixErr("inputScale", "is negative")
	case m.Workers < 0:
		return mixErr("workers", "is negative")
	case m.Workers > maxSpecWorkers:
		return mixErr("workers", fmt.Sprintf("%d exceeds the %d limit", m.Workers, maxSpecWorkers))
	case len(m.Weights) == 0:
		return mixErr("weights", "needs at least one workload")
	}
	for name, w := range m.Weights {
		if badFloat(w) {
			return mixErr("weights", fmt.Sprintf("%q is not finite", name))
		}
		if w < 0 {
			return mixErr("weights", fmt.Sprintf("%q is negative", name))
		}
	}
	// Expected arrivals with defaults applied; a malformed rate must not
	// schedule millions of jobs.
	d := m.withDefaults()
	if arrivals := d.JobsPerMinute / 60 * d.WindowSecs; arrivals > maxMixArrivals {
		return mixErr("jobsPerMinute", fmt.Sprintf("implies ~%.0f arrivals over the window, above the %d limit", arrivals, maxMixArrivals))
	}
	return nil
}

func clusterErr(field, reason string) error {
	return &SpecError{Spec: "ClusterSpec", Field: field, Reason: reason}
}

// Validate rejects malformed ClusterSpec fields. Zero values are legal
// (withDefaults fills them in); what is rejected is anything a default
// would otherwise paper over: negative counts and sizes, non-finite or
// negative link capacities, an odd fat-tree arity, and a Shards layout
// outside [-1, Pods] (a spec with Pods 0 or 1 is one pod). CaptureWith
// and Replay call this first.
func (s ClusterSpec) Validate() error {
	for _, c := range []struct {
		field string
		v     int64
	}{
		{"workers", int64(s.Workers)},
		{"pods", int64(s.Pods)},
		{"racks", int64(s.Racks)},
		{"fatTreeK", int64(s.FatTreeK)},
		{"replication", int64(s.Replication)},
		{"blockSize", s.BlockSize},
	} {
		if c.v < 0 {
			return clusterErr(c.field, "is negative")
		}
	}
	for _, c := range []struct {
		field string
		v     float64
	}{
		{"hostGbps", s.HostGbps},
		{"uplinkGbps", s.UplinkGbps},
	} {
		if badFloat(c.v) {
			return clusterErr(c.field, "is not finite")
		}
		if c.v < 0 {
			return clusterErr(c.field, "is negative")
		}
	}
	if d := s.withDefaults(); d.Topology == "fattree" && d.FatTreeK%2 != 0 {
		return clusterErr("fatTreeK", fmt.Sprintf("%d is odd; a fat tree needs an even arity", d.FatTreeK))
	}
	if pods := max(s.Pods, 1); s.Shards < -1 || s.Shards > pods {
		return clusterErr("shards", fmt.Sprintf("%d is outside [-1, %d]", s.Shards, pods))
	}
	return nil
}

// validateReplication rejects a capture whose HDFS replication factor
// exceeds the worker hosts (DataNodes) the topology builds: every host
// but the master. Replay builds no HDFS, so only CaptureWith calls this,
// after Validate.
func (s ClusterSpec) validateReplication() error {
	d := s.withDefaults()
	var hosts int
	switch d.Topology {
	case "star":
		hosts = d.Workers
	case "multirack":
		hosts = d.Racks*((d.Workers+d.Racks)/d.Racks) - 1
	case "fattree":
		hosts = d.FatTreeK*d.FatTreeK*d.FatTreeK/4 - 1
	default:
		return nil // BuildTopology reports the unknown name
	}
	repl := s.Replication
	if repl == 0 {
		repl = hdfs.DefaultReplication
	}
	if repl > hosts {
		return clusterErr("replication", fmt.Sprintf("%d exceeds the %d worker hosts of the %s topology", repl, hosts, d.Topology))
	}
	return nil
}

// validateRuns rejects run input sizes that are negative, zero with no
// dataset to read, or imply more map tasks at the spec's block size than
// any measured deployment runs. A zero-byte run reads the dataset an
// earlier run on its pod ingests under the same path (runs are striped
// over pods, run i on pod i % pods, and run in order on each pod);
// otherwise it would ingest an empty file, which HDFS refuses.
func validateRuns(runs []workload.RunSpec, blockSize int64, pods int) error {
	bs := blockSizeOr(blockSize)
	pods = max(pods, 1)
	type podPath struct {
		pod  int
		path string
	}
	ingested := make(map[podPath]bool)
	for i, r := range runs {
		if r.InputBytes < 0 {
			return &SpecError{Spec: "RunSpec", Field: "inputBytes", Reason: fmt.Sprintf("is negative (run %d)", i)}
		}
		if r.InputBytes == 0 {
			if !ingested[podPath{i % pods, r.InputPath}] {
				return &SpecError{Spec: "RunSpec", Field: "inputBytes",
					Reason: fmt.Sprintf("is zero and no earlier run on its pod ingests %q (run %d)", r.InputPath, i)}
			}
			continue
		}
		if maps := (r.InputBytes-1)/bs + 1; maps > maxSpecMaps {
			return &SpecError{Spec: "RunSpec", Field: "inputBytes",
				Reason: fmt.Sprintf("implies %d maps at block size %d, above the %d limit (run %d)", maps, bs, maxSpecMaps, i)}
		}
		ingested[podPath{i % pods, r.DatasetPath(r.Profile)}] = true
	}
	return nil
}

// InputBytesFromGiB converts a size in GiB, as the CLIs take it, to
// bytes. NaN, infinite, negative and int64-overflowing sizes are rejected
// here, before the conversion could wrap them into a bogus byte count.
func InputBytesFromGiB(gb float64) (int64, error) {
	b := gb * (1 << 30)
	if math.IsNaN(b) || b < 0 || b >= math.MaxInt64 {
		return 0, &SpecError{Spec: "RunSpec", Field: "inputBytes", Reason: fmt.Sprintf("%g GiB is not a size in [0, 8 EiB)", gb)}
	}
	return int64(b), nil
}
