package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildSimBinary compiles ecnsim once for the end-to-end tests.
func buildSimBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping binary build in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "ecnsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build ecnsim: %v\n%s", err, out)
	}
	return bin
}

// run executes the binary and returns its exit code, stdout and stderr.
func run(t *testing.T, bin string, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("ecnsim %v: %v", args, err)
		}
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// fctLines keeps the FCT statistics lines of a report, indentation
// stripped, so flag and -spec reports compare on their numbers.
func fctLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if l = strings.TrimSpace(l); strings.HasPrefix(l, "FCT ") {
			lines = append(lines, l)
		}
	}
	return lines
}

func TestEcnsim(t *testing.T) {
	bin := buildSimBinary(t)

	// Flags are validated like a sweep spec: an out-of-range value is a
	// usage error with a one-line message, never a crash.
	t.Run("BadFlags", func(t *testing.T) {
		for _, args := range [][]string{
			{"-load", "1.5"},
			{"-rtt-variation", "0.5"},
			{"-flows", "-1"},
			{"-scheme", "foo"},
		} {
			code, stdout, stderr := run(t, bin, args...)
			lines := strings.Split(strings.TrimSpace(stderr), "\n")
			if code != 2 || len(lines) != 1 || !strings.HasPrefix(lines[0], "ecnsim: ") ||
				strings.Contains(stderr, "panic:") || stdout != "" {
				t.Errorf("ecnsim %v: exit %d, stdout %q, stderr:\n%s\nwant exit 2 and one ecnsim: line",
					args, code, stdout, stderr)
			}
		}
	})

	// A flag run and the equivalent -spec run resolve the same cells.
	t.Run("FlagsMatchSpec", func(t *testing.T) {
		code, flagOut, stderr := run(t, bin, "-flows", "60", "-load", "0.6", "-seeds", "1,2", "-parallel", "1")
		if code != 0 {
			t.Fatalf("flag run: exit %d\n%s", code, stderr)
		}
		spec := filepath.Join(t.TempDir(), "sweep.json")
		if err := os.WriteFile(spec, []byte(`{"loads":[0.6],"flows":60,"seeds":[1,2]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		code, specOut, stderr := run(t, bin, "-spec", spec, "-parallel", "1")
		if code != 0 {
			t.Fatalf("spec run: exit %d\n%s", code, stderr)
		}
		got, want := fctLines(flagOut), fctLines(specOut)
		if len(got) != 3 || strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("flag run FCT lines:\n%s\nspec run FCT lines:\n%s",
				strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	})
}
