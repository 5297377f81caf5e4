package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/obs"
)

// The record kinds written by Tango. A snapshot file holds exactly one
// KindAnalysis record; a batch journal holds one KindBatchMeta record
// followed by one KindBatchRow record per completed corpus item.
const (
	KindAnalysis  = "analysis"
	KindBatchMeta = "batch-meta"
	KindBatchRow  = "batch-row"
	// KindBatchItem is the row record of journals written before rows were
	// journaled as JSON. Its gob payload lost Match=&false, so BatchRows
	// rejects it instead of restoring rows that miscount mismatches.
	KindBatchItem = "batch-item"
)

// SnapshotFile is the conventional file name of a single-run analysis
// snapshot inside a checkpoint directory; JournalFile the batch journal's.
const (
	SnapshotFile = "session.ckpt"
	JournalFile  = "batch.ckpt"
)

// BatchMeta is the first record of a batch journal. It binds the journal to
// one specification, corpus and option set, so that resuming against a
// different run is rejected (as corruption of intent, not of bytes) instead
// of silently splicing verdicts from two different workloads.
type BatchMeta struct {
	// SpecDigest fingerprints the compiled specification (see
	// analysis.SpecDigest); CorpusDigest fingerprints the corpus item names
	// and expectations in order.
	SpecDigest   string
	CorpusDigest string
	// Mode is the order-checking mode string, part of the verdict contract.
	Mode     string
	NumItems int
}

// BatchEntry records the final report row of one completed corpus item.
// Restoring the row verbatim on resume is what makes a resumed run's
// tango.batch/1 report byte-identical (after Normalize) to an uninterrupted
// run: completed items are never re-analyzed, and the analyzer is
// deterministic for the rest.
//
// The row travels as JSON, not gob: gob omits zero values even behind
// pointers, so a mismatch row's Match=&false would replay as a nil Match and
// the resumed run would silently miscount mismatches. JSON round-trips the
// row exactly as the report renders it.
type BatchEntry struct {
	Index int
	Row   []byte // obs.BatchItem as JSON
}

// ErrOldJournal reports a batch journal whose rows are in the gob format
// that lost expectation mismatches.
var ErrOldJournal = errors.New("batch journal was written by an older tango whose rows lose expectation mismatches; delete it and rerun the batch")

// AppendBatchRow journals the final row of corpus item index.
func (j *Journal) AppendBatchRow(index int, row obs.BatchItem) error {
	data, err := json.Marshal(row)
	if err != nil {
		return fmt.Errorf("checkpoint: encode batch row: %w", err)
	}
	return j.Append(KindBatchRow, BatchEntry{Index: index, Row: data})
}

// BatchRows decodes the rows of a replayed batch journal by corpus index,
// keeping those in [0, n). Other record kinds are skipped; a row in the old
// gob format fails with ErrOldJournal.
func BatchRows(recs []Record, n int) (map[int]obs.BatchItem, error) {
	rows := make(map[int]obs.BatchItem)
	for i := range recs {
		switch recs[i].Kind {
		case KindBatchItem:
			return nil, ErrOldJournal
		case KindBatchRow:
		default:
			continue
		}
		var e BatchEntry
		if err := recs[i].Decode(&e); err != nil {
			return nil, err
		}
		var row obs.BatchItem
		if err := json.Unmarshal(e.Row, &row); err != nil {
			return nil, corruptf("batch row %d: %v", e.Index, err)
		}
		if e.Index >= 0 && e.Index < n {
			rows[e.Index] = row
		}
	}
	return rows, nil
}
