package diffcheck

import (
	"os"
	"strconv"
	"testing"
)

// TestDiffQuick is the tier-1 differential smoke: a small corpus over
// every stage at two worker counts. It keeps the harness itself honest
// on every `go test ./...` without the cost of the deep run.
func TestDiffQuick(t *testing.T) {
	rep := Run(Options{Seed: 1, Cases: 4, Size: 4, Workers: []int{1, 2}})
	if rep.Diverged != 0 {
		t.Fatalf("differential smoke diverged: %s", rep.First())
	}
	if rep.TotalCases == 0 {
		t.Fatal("differential smoke ran no cases")
	}
}

// TestDiffDeep is the full differential corpus behind `make verify-deep`:
// at least 200 cases per stage across at least three worker counts,
// enabled by MOSAIC_VERIFY_DEEP=1. MOSAIC_DIFF_CASES overrides the case
// count and MOSAIC_DIFF_OUT names the JSON artifact written when a
// divergence is found (for the CI upload).
func TestDiffDeep(t *testing.T) {
	if os.Getenv("MOSAIC_VERIFY_DEEP") == "" {
		t.Skip("deep differential corpus: set MOSAIC_VERIFY_DEEP=1 (make verify-deep)")
	}
	cases := 200
	if v := os.Getenv("MOSAIC_DIFF_CASES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad MOSAIC_DIFF_CASES %q", v)
		}
		cases = n
	}
	seed := int64(1)
	if v := os.Getenv("MOSAIC_DIFF_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad MOSAIC_DIFF_SEED %q", v)
		}
		seed = n
	}
	rep := Run(Options{Seed: seed, Cases: cases, Workers: []int{1, 2, 0}})
	t.Logf("deep differential run: %d cases across %d stages, %d divergences",
		rep.TotalCases, len(rep.Stages), rep.Diverged)
	if rep.Diverged == 0 {
		return
	}
	if out := os.Getenv("MOSAIC_DIFF_OUT"); out != "" {
		if err := WriteJSON(out, rep); err != nil {
			t.Errorf("writing divergence artifact: %v", err)
		} else {
			t.Logf("divergence artifact written to %s", out)
		}
	}
	t.Fatalf("differential corpus diverged: %s", rep.First())
}
