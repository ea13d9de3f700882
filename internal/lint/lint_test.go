package lint_test

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"wavedag/internal/lint"
)

var update = flag.Bool("update", false, "rewrite the fixture golden file")

// fixtureDiagnostics lints the fixture module and returns its
// diagnostics with filenames relativized to the fixture root.
func fixtureDiagnostics(t *testing.T) []string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := lint.Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading fixture module: %v", err)
	}
	var lines []string
	for _, d := range lint.Run(c, lint.Analyzers()) {
		lines = append(lines, strings.ReplaceAll(d.String(), dir+string(filepath.Separator), ""))
	}
	return lines
}

// TestFixtureGolden pins every analyzer's behavior on the fixture
// module: each seeded violation must be reported at the expected
// position, and the clean functions must stay silent. Regenerate with
// go test ./internal/lint -run TestFixtureGolden -update.
func TestFixtureGolden(t *testing.T) {
	got := strings.Join(fixtureDiagnostics(t), "\n") + "\n"
	golden := filepath.Join("testdata", "fixture.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("fixture diagnostics diverged from golden file\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFixtureCoverage asserts, independently of exact golden content,
// that every analyzer both fires on its seeded violation and stays
// quiet on the package's clean code.
func TestFixtureCoverage(t *testing.T) {
	lines := fixtureDiagnostics(t)
	mustFire := []string{"[lockfree]", "[publish]", "[poolpair]", "[errwrap]"}
	for _, contract := range mustFire {
		found := false
		for _, l := range lines {
			if strings.Contains(l, contract) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s diagnostic on the fixture module; seeded violation missed", contract)
		}
	}
	mustStaySilent := []string{"Val", "Good(", "Deferred", "Balanced", "Handoff", "GoodCaller", "Waived", "Grow"}
	for _, l := range lines {
		for _, clean := range mustStaySilent {
			if strings.Contains(l, clean) {
				t.Errorf("diagnostic mentions clean fixture function %s: %s", clean, l)
			}
		}
	}
}

// TestSelfRunClean runs the full analyzer suite over this repository:
// the codebase must satisfy its own contracts.
func TestSelfRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-repo lint in -short mode")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	c, err := lint.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	for _, d := range lint.Run(c, lint.Analyzers()) {
		t.Errorf("self-run finding: %s", d)
	}
}

// TestDriverExitCodes runs the wavedaglint command itself: exit 0 and
// no output on a clean tree is the make-lint contract, exit 1 with
// file:line diagnostics on the fixture module is the failure contract.
func TestDriverExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping command build in -short mode")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "wavedaglint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/wavedaglint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building wavedaglint: %v\n%s", err, out)
	}

	fixture := filepath.Join(root, "internal", "lint", "testdata", "src", "fixture")
	cmd := exec.Command(bin, "-C", fixture, "./...")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("on fixture violations: want exit 1, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "lockfree.go:") {
		t.Errorf("fixture run output lacks file:line diagnostics:\n%s", out)
	}

	cmd = exec.Command(bin, "-C", root, "./...")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Errorf("self-run: want exit 0, got %v\n%s", err, out)
	}
}
