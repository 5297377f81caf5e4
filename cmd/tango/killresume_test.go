package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/specs"
)

// TestKillResumeBatchEquality is the crash-recovery acceptance test: a
// supervised batch run is SIGKILLed mid-corpus (no chance to clean up), then
// resumed from its checkpoint journal, and the resumed run's normalized
// tango.batch/1 report must be byte-identical to an uninterrupted run's.
// It builds the real binary and kills the real process — the in-process
// supervisor tests cannot cover an actual SIGKILL.
func TestKillResumeBatchEquality(t *testing.T) {
	bin := buildTango(t)
	dir := t.TempDir()

	// Workload: a directory of valid ack traces of varying length. All are
	// valid under FULL order checking, so a clean aggregate exits 0 and a
	// clean resumed aggregate exits 6.
	specPath := filepath.Join(dir, "ack.estelle")
	if err := os.WriteFile(specPath, []byte(specs.Ack), 0o644); err != nil {
		t.Fatal(err)
	}
	corpusDir := filepath.Join(dir, "corpus")
	if err := os.Mkdir(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		text := strings.Repeat("in A x\nin B y\nout A ack\n", 10+i)
		name := filepath.Join(corpusDir, fmt.Sprintf("ack-%02d.trace", i))
		if err := os.WriteFile(name, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	common := []string{"batch", "-supervise", "-order", "FULL", "-j", "2"}
	want, got := killResume(t, bin, common, specPath, corpusDir, 0, exitResumedOK,
		func(rows map[int]obs.BatchItem) bool { return len(rows) > 0 })
	if want != got {
		t.Fatalf("resumed report differs from uninterrupted reference:\nwant: %s\ngot:  %s", want, got)
	}
}

// TestKillResumeKeepsMismatches: the same crash and resume over a manifest
// whose expectations the traces do not meet. The run is killed only after
// the row of item 0, a mismatch, is journaled, so the resume restores it; the
// restored row must still count as a mismatch, and the report must equal the
// uninterrupted one.
func TestKillResumeKeepsMismatches(t *testing.T) {
	bin := buildTango(t)
	dir := t.TempDir()
	specPath := filepath.Join(dir, "ack.estelle")
	if err := os.WriteFile(specPath, []byte(specs.Ack), 0o644); err != nil {
		t.Fatal(err)
	}
	// Every trace is valid; the even ones are expected invalid.
	var manifest strings.Builder
	for i := 0; i < 8; i++ {
		text := strings.Repeat("in A x\nin B y\nout A ack\n", 10+i)
		name := fmt.Sprintf("ack-%02d.trace", i)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		expect := "valid"
		if i%2 == 0 {
			expect = "invalid"
		}
		fmt.Fprintf(&manifest, "%s %s\n", name, expect)
	}
	manifestPath := filepath.Join(dir, "manifest.txt")
	if err := os.WriteFile(manifestPath, []byte(manifest.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	common := []string{"batch", "-supervise", "-order", "FULL", "-j", "1"}
	want, got := killResume(t, bin, common, specPath, manifestPath, exitInvalid, exitInvalid,
		func(rows map[int]obs.BatchItem) bool { _, ok := rows[0]; return ok })
	if want != got {
		t.Fatalf("resumed report differs from uninterrupted reference:\nwant: %s\ngot:  %s", want, got)
	}
	var rep obs.BatchReport
	if err := json.Unmarshal([]byte(got), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Counts.Mismatches != 4 {
		t.Fatalf("resumed report counts %d mismatches, want 4", rep.Counts.Mismatches)
	}
}

// killResume runs the batch command (common flags, spec and corpus) three
// times: uninterrupted, checkpointed and SIGKILLed once the journal's
// restored rows satisfy ready, and resumed from that checkpoint. It checks
// the reference and resumed exit codes and returns both normalized reports.
func killResume(t *testing.T, bin string, common []string, specPath, corpus string,
	refExit, resumeExit int, ready func(map[int]obs.BatchItem) bool) (want, got string) {
	t.Helper()
	dir := t.TempDir()
	// Reportdir is overridable so CI can collect the reports as artifacts.
	reportDir := os.Getenv("CRASH_REPORT_DIR")
	if reportDir == "" {
		reportDir = dir
	} else if err := os.MkdirAll(reportDir, 0o755); err != nil {
		t.Fatal(err)
	}
	exitCode := func(err error) int {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		if err != nil {
			t.Fatal(err)
		}
		return 0
	}

	// Uninterrupted reference run.
	refReport := filepath.Join(reportDir, "kill-resume-reference.json")
	ref := exec.Command(bin, append(append([]string{}, common...),
		"-report", refReport, specPath, corpus)...)
	if out, err := ref.CombinedOutput(); exitCode(err) != refExit {
		t.Fatalf("reference run: %v, want exit %d\n%s", err, refExit, out)
	}

	// Checkpointed run, SIGKILLed once the journal holds the rows asked for.
	ckDir := filepath.Join(dir, "ck")
	victim := exec.Command(bin, append(append([]string{}, common...),
		"-throttle", "200ms", "-checkpoint", ckDir, specPath, corpus)...)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(ckDir, checkpoint.JournalFile)
	killed := false
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		recs, _, err := checkpoint.ReplayJournal(jpath)
		if err == nil && len(recs) > 0 {
			if rows, err := checkpoint.BatchRows(recs, 1<<20); err == nil && ready(rows) {
				if err := victim.Process.Signal(syscall.SIGKILL); err == nil {
					killed = true
				}
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	werr := victim.Wait()
	if !killed {
		t.Fatalf("never saw the journaled rows to kill over (wait: %v)", werr)
	}
	if werr == nil {
		t.Fatal("victim exited cleanly despite SIGKILL")
	}

	// Resume. The journal's torn tail (if the kill landed mid-append) must be
	// repaired, finished rows restored verbatim, and the rest analyzed.
	gotReport := filepath.Join(reportDir, "kill-resume-resumed.json")
	res := exec.Command(bin, append(append([]string{}, common...),
		"-resume", ckDir, "-report", gotReport, specPath, corpus)...)
	out, err := res.CombinedOutput()
	if exitCode(err) != resumeExit {
		t.Fatalf("resumed run: err=%v, want exit %d\n%s", err, resumeExit, out)
	}
	if !strings.Contains(string(out), "resumed") {
		t.Fatalf("resumed run output never mentions restored rows:\n%s", out)
	}
	return normalizeReportFile(t, refReport), normalizeReportFile(t, gotReport)
}

// normalizeReportFile loads a tango.batch/1 report, strips the run-variant
// fields (wall time, worker ids, attempts...), and returns canonical JSON.
func normalizeReportFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.BatchReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	rep.Normalize()
	out, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
