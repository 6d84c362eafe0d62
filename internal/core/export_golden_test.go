package core

import (
	"bytes"
	"testing"

	"keddah/internal/flows"
	"keddah/internal/golden"
)

// goldenSchedule exercises the format edge cases: master host (-1),
// CSV-hostile job names (comma, quote), NS3-tag-hostile names (spaces),
// sub-second start times and zero-byte flows.
func goldenSchedule() []SynthFlow {
	return []SynthFlow{
		{StartNs: 0, SrcHost: 0, DstHost: 1, SrcPort: 40001, DstPort: 50010,
			Bytes: 134_217_728, Phase: flows.PhaseHDFSWrite, Job: "terasort-gen0"},
		{StartNs: 1_500_000_000, SrcHost: 3, DstHost: 0, SrcPort: 13562, DstPort: 40002,
			Bytes: 4_194_304, Phase: flows.PhaseShuffle, Job: `weird "job", with csv`},
		{StartNs: 2_000_000_000, SrcHost: 2, DstHost: -1, SrcPort: 40003, DstPort: 8031,
			Bytes: 512, Phase: flows.PhaseControl, Job: "job with spaces"},
		{StartNs: 2_000_000_001, SrcHost: 7, DstHost: 4, SrcPort: 40004, DstPort: 13562,
			Bytes: 0, Phase: flows.PhaseShuffle, Job: ""},
	}
}

// TestExportCSVGolden pins the CSV wire format byte for byte: field
// order, float formatting, and quoting of hostile job names must not
// drift, or previously written schedules stop importing elsewhere.
func TestExportCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportCSV(&buf, goldenSchedule()); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "schedule.golden.csv", buf.Bytes())

	// The golden bytes must also round-trip losslessly.
	back, err := ImportCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	want := goldenSchedule()
	if len(back) != len(want) {
		t.Fatalf("round trip lost flows: %d != %d", len(back), len(want))
	}
	for i := range want {
		if back[i] != want[i] {
			t.Errorf("flow %d changed: %+v -> %+v", i, want[i], back[i])
		}
	}
}

// TestExportNS3Golden pins the driver stream format: header, node
// count, flow-line layout and tag sanitisation.
func TestExportNS3Golden(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportNS3(&buf, goldenSchedule(), 8); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "schedule.golden.ns3", buf.Bytes())
}
