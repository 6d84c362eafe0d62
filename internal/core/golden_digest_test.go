package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"keddah/internal/golden"
	"keddah/internal/telemetry"
	"keddah/internal/workload"
)

// TestCaptureGoldenDigest pins every artefact of capture sessions shaped
// like the suite's E4 (replication sweep point), E11 (worker failure),
// E16 (chaos schedule with re-routes and aborts) and E17 (TCP transport
// under chaos) experiments — the TraceSet JSON, the flow-record CSV, the
// per-run results and the deterministic telemetry snapshot — to digests
// committed in testdata/capture.digest. The digests were recorded on
// amd64; a mismatch names the session and artefact that drifted.
func TestCaptureGoldenDigest(t *testing.T) {
	cases := []struct {
		name string
		spec ClusterSpec
		runs []workload.RunSpec
		opts CaptureOpts
	}{
		{
			name: "E4 replication sweep point",
			spec: ClusterSpec{Workers: 6, Replication: 2, Seed: 7},
			runs: []workload.RunSpec{{Profile: "terasort", InputBytes: 192 << 20}},
		},
		{
			name: "E11 worker failure",
			spec: ClusterSpec{Workers: 6, Seed: 11},
			runs: []workload.RunSpec{{Profile: "sort", InputBytes: 192 << 20}},
			opts: CaptureOpts{Failures: []FailureSpec{{WorkerIndex: 2, AtNs: 6_000_000_000}}},
		},
		{
			name: "E16 chaos schedule",
			spec: ClusterSpec{Workers: 6, Seed: 99},
			runs: []workload.RunSpec{{Profile: "terasort", InputBytes: 256 << 20}},
			opts: CaptureOpts{Faults: chaosSchedule()},
		},
		{
			name: "E17 tcp chaos",
			spec: ClusterSpec{Workers: 6, Seed: 17, Transport: "tcp"},
			runs: []workload.RunSpec{{Profile: "terasort", InputBytes: 128 << 20}},
			opts: CaptureOpts{Faults: chaosSchedule()},
		},
	}
	var out bytes.Buffer
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tel := telemetry.New()
			tc.opts.Telemetry = tel
			ts, rr, err := CaptureWith(tc.spec, tc.runs, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range []struct {
				name  string
				write func(io.Writer) error
			}{
				{"traceset", ts.WriteJSON},
				{"flowcsv", func(w io.Writer) error { return WriteFlowCSV(w, ts) }},
				{"runresults", func(w io.Writer) error { return json.NewEncoder(w).Encode(rr) }},
				{"telemetry", tel.WriteJSON},
			} {
				h := sha256.New()
				if err := a.write(h); err != nil {
					t.Fatalf("%s: %v", a.name, err)
				}
				fmt.Fprintf(&out, "%s %s %x\n", strings.ReplaceAll(tc.name, " ", "_"), a.name, h.Sum(nil))
			}
		})
	}
	golden.Check(t, "capture.digest", out.Bytes())
}
