package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGcsimGoldenOutputs pins the simulator's observable output byte for
// byte: the JSONL event log, the span log and the per-collection -log
// lines of two paper runs on the default in-memory OO7 trace (conn 3,
// seed 1). A refactor of the control loop, the record types or the
// telemetry builders must leave every digest unchanged; a deliberate
// change to simulator output updates them here, in the same commit.
func TestGcsimGoldenOutputs(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		args                   []string
		events, spans, perColl string
	}{
		{
			name:    "saio",
			args:    []string{"-policy", "saio", "-frac", "0.1"},
			events:  "702cbc0c75c838488499f9cc87214611ec34f50c615fd4bd6b826c619c90bd36",
			spans:   "1b2bcfc6cd262da7b2d45422c21b455ddf2fd66383d605d0726b34818a8b3cba",
			perColl: "5f02b246374e007626c29d2237fc5bd885bbf0cd81213e1371b21d6bdc543a81",
		},
		{
			name:    "saga-fgs-hb",
			args:    []string{"-policy", "saga", "-frac", "0.1", "-estimator", "fgs-hb"},
			events:  "1339b281bf391cef9a6c9ddb999c9508cff73e21121751fb6a32b30f0b457e05",
			spans:   "d00a88af1e145fbb54b7b24350f0d3e6b8d99cb6a64e405dfe56a41832622b7e",
			perColl: "70d129d60f0647b309fad8076dc5c59d06e88d7a93e1b5189ec38c76bd7314d5",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			eventsPath := filepath.Join(dir, "run.jsonl")
			spansPath := filepath.Join(dir, "spans.jsonl")
			args := append(append([]string(nil), tc.args...), "-events", eventsPath, "-spans", spansPath, "-log")
			var stdout, stderr bytes.Buffer
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("run %v: %v\n%s", args, err, stderr.String())
			}
			// The -log lines are the ones starting with '#'; the rest of
			// stdout is the summary, which names the temp paths.
			var perColl strings.Builder
			for _, line := range strings.SplitAfter(stdout.String(), "\n") {
				if strings.HasPrefix(line, "#") {
					perColl.WriteString(line)
				}
			}
			if perColl.Len() == 0 {
				t.Fatalf("no per-collection lines in output:\n%s", stdout.String())
			}
			check := func(what, want string, data []byte) {
				t.Helper()
				sum := sha256.Sum256(data)
				if got := hex.EncodeToString(sum[:]); got != want {
					t.Errorf("%s digest = %s, want %s", what, got, want)
				}
			}
			for _, f := range []struct{ what, path, want string }{
				{"events", eventsPath, tc.events},
				{"spans", spansPath, tc.spans},
			} {
				data, err := os.ReadFile(f.path)
				if err != nil {
					t.Fatal(err)
				}
				check(f.what, f.want, data)
			}
			check("-log", tc.perColl, []byte(perColl.String()))
		})
	}
}
