package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunNoMatchExitsNonZero(t *testing.T) {
	var out, errb strings.Builder
	code := run(context.Background(), []string{"-run", "zzz-no-such"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	msg := errb.String()
	if !strings.Contains(msg, "no experiments matched") {
		t.Fatalf("stderr %q missing 'no experiments matched'", msg)
	}
	if !strings.Contains(msg, "T1") || !strings.Contains(msg, "E13") {
		t.Fatalf("stderr %q does not list the known IDs", msg)
	}
	if out.Len() != 0 {
		t.Fatalf("unexpected stdout: %q", out.String())
	}
}

func TestRunBadPatternExitsNonZero(t *testing.T) {
	var out, errb strings.Builder
	if code := run(context.Background(), []string{"-run", "("}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "bad -run pattern") {
		t.Fatalf("stderr %q missing pattern diagnostic", errb.String())
	}
}

func TestRunBadFlagExitsNonZero(t *testing.T) {
	var out, errb strings.Builder
	if code := run(context.Background(), []string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

func TestRunList(t *testing.T) {
	var out, errb strings.Builder
	if code := run(context.Background(), []string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "T1") || !strings.Contains(out.String(), "E13") {
		t.Fatalf("-list output missing experiments:\n%s", out.String())
	}
}

// A small real run end to end: selected subset, files written, JSON valid,
// markdown carries the section, exit 0.
func TestRunSubsetWritesArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	md := filepath.Join(dir, "out.md")
	js := filepath.Join(dir, "out.json")
	var out, errb strings.Builder
	code := run(context.Background(),
		[]string{"-quick", "-j", "2", "-run", "^E9$", "-out", md, "-json", js}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr: %s", code, errb.String())
	}
	mdBytes, err := os.ReadFile(md)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(mdBytes), "# EXPERIMENTS") || !strings.Contains(string(mdBytes), "## E9") {
		t.Fatalf("markdown file malformed:\n%.500s", mdBytes)
	}
	jsBytes, err := os.ReadFile(js)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Mode        string `json:"mode"`
		Partial     bool   `json:"partial"`
		Experiments []struct {
			ID string `json:"id"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(jsBytes, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Mode != "quick" || doc.Partial || len(doc.Experiments) != 1 || doc.Experiments[0].ID != "E9" {
		t.Fatalf("JSON document wrong: %+v", doc)
	}
}

// SIGINT semantics without the signal: a cancelled context must still
// flush valid (partial) markdown and JSON and exit 130.
func TestRunInterruptedFlushesPartialOutput(t *testing.T) {
	dir := t.TempDir()
	md := filepath.Join(dir, "partial.md")
	js := filepath.Join(dir, "partial.json")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb strings.Builder
	code := run(ctx, []string{"-quick", "-out", md, "-json", js}, &out, &errb)
	if code != 130 {
		t.Fatalf("exit code = %d, want 130\nstderr: %s", code, errb.String())
	}
	mdBytes, err := os.ReadFile(md)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(mdBytes), "# EXPERIMENTS") || !strings.Contains(string(mdBytes), "Sweep interrupted") {
		t.Fatalf("partial markdown malformed:\n%.500s", mdBytes)
	}
	jsBytes, err := os.ReadFile(js)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Partial     bool `json:"partial"`
		Experiments []struct {
			ID    string `json:"id"`
			Error string `json:"error"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(jsBytes, &doc); err != nil {
		t.Fatalf("partial JSON invalid: %v\n%s", err, jsBytes)
	}
	if !doc.Partial {
		t.Fatal("interrupted run must be marked partial")
	}
	if len(doc.Experiments) == 0 || doc.Experiments[0].Error == "" {
		t.Fatalf("cancelled experiments missing error accounting: %+v", doc.Experiments)
	}
}

// Usage errors exit 2 before any experiment runs, with a diagnostic that
// names the offending argument.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"stray-positional-arg"}, "unexpected arguments"},
		{[]string{"-quick", "extra.json"}, "unexpected arguments"},
		{[]string{"--", "extra.json"}, "unexpected arguments"},
		// Rejected rather than clamped, so -json never records a worker
		// count the runner did not use.
		{[]string{"-quick", "-run", "^E9$", "-j", "0"}, "-j"},
		{[]string{"-quick", "-run", "^E9$", "-j", "-3"}, "-j"},
	} {
		var out, errb strings.Builder
		if code := run(context.Background(), tc.args, &out, &errb); code != 2 {
			t.Fatalf("run(%q) = %d, want 2\nstderr: %s", tc.args, code, errb.String())
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Fatalf("run(%q) stderr %q does not mention %q", tc.args, errb.String(), tc.want)
		}
		if out.Len() != 0 {
			t.Fatalf("run(%q) wrote stdout: %q", tc.args, out.String())
		}
	}
}

// The streamed stdout must be byte-identical at any -j (the CI determinism
// gate in miniature).
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	render := func(j string) string {
		var out, errb strings.Builder
		if code := run(context.Background(), []string{"-quick", "-run", "^(T1|E9)$", "-j", j}, &out, &errb); code != 0 {
			t.Fatalf("-j %s exit code = %d\nstderr: %s", j, code, errb.String())
		}
		return out.String()
	}
	j1 := render("1")
	for _, j := range []string{"4", "8"} {
		if jn := render(j); jn != j1 {
			t.Fatalf("-j %s output differs from -j 1", j)
		}
	}
}
