package exec

import (
	"context"
	"time"
)

// Limit short-circuits the pipeline after N matches: once satisfied it
// stops pulling its input entirely, so upstream blocks are never scanned,
// embedded, or probed — a LIMIT 10 over a million-row probe side touches
// a handful of blocks instead of the whole input.
type Limit struct {
	Input Operator
	N     int

	st      OpStats
	emitted int
	// Truncated reports the stream was cut before its natural end: the
	// limit was reached while the input may have had more matches.
	Truncated bool
}

// Open implements Operator.
func (l *Limit) Open(ctx context.Context) error {
	l.st = OpStats{Name: "limit"}
	l.emitted = 0
	l.Truncated = false
	return l.Input.Open(ctx)
}

// Next implements Operator.
func (l *Limit) Next(ctx context.Context) (*Batch, error) {
	if l.emitted >= l.N {
		return nil, nil
	}
	b, err := l.Input.Next(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	start := time.Now()
	l.st.RowsIn += int64(len(b.Matches))
	if keep := l.N - l.emitted; len(b.Matches) > keep {
		l.st.EarlyOutRows += int64(len(b.Matches) - keep)
		b.Matches = b.Matches[:keep]
	}
	l.emitted += len(b.Matches)
	if l.emitted >= l.N {
		l.Truncated = true
	}
	l.st.RowsOut += int64(len(b.Matches))
	l.st.Batches++
	l.st.Elapsed += time.Since(start)
	return b, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.Input.Close() }

// Stats implements Operator.
func (l *Limit) Stats() OpStats { return l.st }
