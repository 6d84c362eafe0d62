package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"keddah/internal/core"
)

// TestRunRejectsBadSpecs: flags a default would silently replace
// (negative worker or pod counts) or whose byte conversion overflows
// int64 (-input-gb 1e12) are rejected with ErrBadSpec before anything
// is simulated, and no trace set is written.
func TestRunRejectsBadSpecs(t *testing.T) {
	for _, tc := range []struct{ flag, value, field string }{
		{"-workers", "-4", "workers"},
		{"-pods", "-3", "pods"},
		{"-input-gb", "1e12", "inputBytes"},
		{"-input-gb", "0", "inputBytes"},
		{"-workers", "2", "replication"},
	} {
		out := filepath.Join(t.TempDir(), "traces.json")
		err := run([]string{tc.flag, tc.value, "-out", out})
		var se *core.SpecError
		if !errors.Is(err, core.ErrBadSpec) || !errors.As(err, &se) || se.Field != tc.field {
			t.Errorf("%s %s: got %v, want a SpecError on %s", tc.flag, tc.value, err, tc.field)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%s %s: trace set written despite the bad spec (stat: %v)", tc.flag, tc.value, err)
		}
	}
}
