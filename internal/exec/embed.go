package exec

import (
	"context"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/embstore"
	"ejoin/internal/model"
	"ejoin/internal/relational"
)

// Embed applies E_µ to each block: the batch's texts are gathered from
// the table and embedded through the shared store (cache hits and merged
// in-flight calls skip the model) or the chunked parallel scheduler when
// no store is attached. Batches that already carry embeddings (vector
// column projected at the scan) pass through untouched.
//
// Because embedding happens per block, a pipeline that stops early — a
// LIMIT satisfied, a cancelled request — never pays model calls for the
// rows it did not reach; that is the pipeline's main saving on cold
// corpora.
type Embed struct {
	Input Operator
	// Table/Column locate the context-rich text column.
	Table  *relational.Table
	Column string
	// Model is E_µ; Store, when set, is the shared embedding cache.
	Model model.Model
	Store *embstore.Store
	// Threads caps embedding parallelism within a block.
	Threads int

	st    OpStats
	texts relational.StringColumn
	batch embstore.BatchStats
}

// Open resolves the text column.
func (e *Embed) Open(ctx context.Context) error {
	e.st = OpStats{Name: "embed"}
	e.batch = embstore.BatchStats{}
	if err := e.Input.Open(ctx); err != nil {
		return err
	}
	col, err := e.Table.Strings(e.Column)
	if err != nil {
		return err
	}
	e.texts = col
	return nil
}

// Next embeds the next block.
func (e *Embed) Next(ctx context.Context) (*Batch, error) {
	b, err := e.Input.Next(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	e.st.RowsIn += int64(b.Len())
	if b.Emb != nil {
		e.st.RowsOut += int64(b.Len())
		e.st.Batches++
		return b, nil
	}
	start := time.Now()
	texts := make([]string, len(b.Rows))
	for i, r := range b.Rows {
		texts[i] = e.texts[r]
	}
	if e.Store != nil {
		emb, bs, err := e.Store.EmbedAll(ctx, e.Model, texts, embstore.BatchOptions{Threads: e.Threads})
		if err != nil {
			return nil, err
		}
		b.Emb = emb
		e.batch.Hits += bs.Hits
		e.batch.Misses += bs.Misses
		e.batch.Merged += bs.Merged
		e.batch.ModelCalls += bs.ModelCalls
	} else {
		emb, err := core.EmbedParallel(ctx, e.Model, texts, e.Threads)
		if err != nil {
			return nil, err
		}
		b.Emb = emb
		e.batch.Misses += int64(len(texts))
		e.batch.ModelCalls += int64(len(texts))
	}
	e.st.Elapsed += time.Since(start)
	e.st.RowsOut += int64(b.Len())
	e.st.Batches++
	return b, nil
}

// Close implements Operator.
func (e *Embed) Close() error { return e.Input.Close() }

// Stats implements Operator.
func (e *Embed) Stats() OpStats { return e.st }

// BatchStats is the cumulative cache/model accounting across all blocks.
func (e *Embed) BatchStats() embstore.BatchStats { return e.batch }
