package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadSnapshot feeds arbitrary bytes through the snapshot reader: it must
// never panic and never report success with garbage — every outcome is either
// a clean decode of a well-formed file or a typed error.
func FuzzReadSnapshot(f *testing.F) {
	good, err := encodeRecord(KindAnalysis, payload{Name: "seed", Count: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(Magic))
	f.Add(append([]byte(Magic), good...))
	f.Add(append([]byte(Magic), good[:len(good)/2]...))
	f.Add([]byte("tango.ckpt/2\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "s.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var out payload
		err := ReadSnapshot(path, KindAnalysis, &out)
		if err != nil && !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("untyped error from ReadSnapshot: %v", err)
		}
	})
}

// FuzzReplayJournal: arbitrary bytes must replay without panicking, and any
// failure must be the typed corruption error.
func FuzzReplayJournal(f *testing.F) {
	rec, err := encodeRecord(KindBatchRow, BatchEntry{Index: 3, Row: []byte(`{"trace":"t"}`)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(Magic), rec...))
	f.Add(append(append([]byte(Magic), rec...), rec[:5]...))
	f.Add([]byte(Magic))
	f.Add([]byte("nonsense"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, truncated, err := ReplayJournal(path)
		if err != nil {
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("untyped error from ReplayJournal: %v", err)
			}
			return
		}
		_ = truncated
		_, _ = BatchRows(recs, 8)
	})
}
