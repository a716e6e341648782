package main

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/embstore"
	"ejoin/internal/hnsw"
	"ejoin/internal/ivf"
	"ejoin/internal/mat"
	"ejoin/internal/model"
	"ejoin/internal/mutation"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
	"ejoin/internal/vindex"
)

// Leaf timings: each layer's public kernel on the workload's own
// matrices, one thread, best of a few repetitions (the minimum is the
// run least disturbed by the other tenant of a shared core). Operation
// and byte counts are computed from the sizes, not measured.

const kernelReps = 3

// bestOf returns the shortest of reps timings of fn.
func bestOf(reps int, fn func() error) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

var sink float32 // keeps kernel results alive so the calls are not elided

// measureLayers times the leaf kernels on the workload's probe and build
// matrices and fills the model/embstore/core/vec/quant/mat/ivf/hnsw/
// mutation.wal metrics.
func measureLayers(ctx context.Context, p paths, in *inputs, m measured) error {
	mdl, err := model.NewHashEmbedder(embedDim)
	if err != nil {
		return err
	}
	probeNames, buildNames := in.Probe.names(), in.Build.names()

	// model: one Embed per probe string.
	d, err := bestOf(1, func() error {
		for _, s := range probeNames {
			if _, err := mdl.Embed(s); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("model.embed_ns", perItem(d, len(probeNames)), len(probeNames))

	// embstore: EmbedAll over the probe column on an empty store (every
	// row a miss), then again (every row a hit).
	store := embstore.New(embstore.Config{MaxBytes: 256 << 20})
	opts := embstore.BatchOptions{Threads: 1}
	var left *mat.Matrix
	cold, err := bestOf(1, func() error {
		left, _, err = store.EmbedAll(ctx, mdl, probeNames, opts)
		return err
	})
	if err != nil {
		return err
	}
	warm, err := bestOf(kernelReps, func() error {
		_, _, err := store.EmbedAll(ctx, mdl, probeNames, opts)
		return err
	})
	if err != nil {
		return err
	}
	m.set("embstore.embed_all_cold_ns_row", perItem(cold, len(probeNames)), len(probeNames))
	m.set("embstore.embed_all_warm_ns_row", perItem(warm, len(probeNames)), len(probeNames))
	right, _, err := store.EmbedAll(ctx, mdl, buildNames, opts)
	if err != nil {
		return err
	}

	if err := measureJoins(ctx, left, right, m); err != nil {
		return err
	}
	if err := measureKernels(left, right, m); err != nil {
		return err
	}
	if err := measureIndexes(left, right, m); err != nil {
		return err
	}
	return measureWAL(p, in, m)
}

func perItem(d time.Duration, n int) float64 {
	return ratio(float64(d.Nanoseconds()), float64(n))
}

// measureJoins times the core join operators, one thread, ns per
// compared pair (pairs = |left| x |right|, computed).
func measureJoins(ctx context.Context, left, right *mat.Matrix, m measured) error {
	opts := core.Options{Kernel: vec.DefaultKernel(), Threads: 1, BudgetBytes: 32 << 20}
	pairs := left.Rows() * right.Rows()
	const threshold = 0.80
	lf16, rf16 := mat.EncodeF16(left), mat.EncodeF16(right)
	li8, ri8 := quant.EncodeInt8(left), quant.EncodeInt8(right)
	joins := []struct {
		name string
		run  func() (*core.Result, error)
	}{
		{"core.nlj_ns_pair", func() (*core.Result, error) { return core.NLJ(ctx, left, right, threshold, opts) }},
		{"core.tensor_ns_pair", func() (*core.Result, error) { return core.TensorJoin(ctx, left, right, threshold, opts) }},
		{"core.topk_ns_pair", func() (*core.Result, error) { return core.TensorTopK(ctx, left, right, 3, opts) }},
		{"core.nlj_f16_ns_pair", func() (*core.Result, error) { return core.NLJF16(ctx, lf16, rf16, threshold, opts) }},
		{"core.nlj_i8_ns_pair", func() (*core.Result, error) { return core.NLJI8(ctx, li8, ri8, threshold, opts) }},
	}
	for _, j := range joins {
		d, err := bestOf(kernelReps, func() error {
			res, err := j.run()
			if err == nil {
				sink += float32(len(res.Matches))
			}
			return err
		})
		if err != nil {
			return err
		}
		m.set(j.name, perItem(d, pairs), pairs)
	}
	return nil
}

// measureKernels times the dot-product kernels over every (left row,
// right row) pair, the GEMM, PQ's ADC scan, and a stream copy as the
// memory-bandwidth baseline.
func measureKernels(left, right *mat.Matrix, m measured) error {
	k := vec.DefaultKernel()
	dim := left.Cols()
	// Cap the pair count so the slower kernels stay within budget.
	nl, nr := min(left.Rows(), 512), min(right.Rows(), 512)
	pairs := nl * nr
	flops := float64(2 * dim * pairs) // one multiply and one add per dimension
	rate := func(d time.Duration, work float64) float64 { return ratio(work, float64(d.Nanoseconds())) }

	d, _ := bestOf(kernelReps, func() error {
		for i := 0; i < nl; i++ {
			a := left.Row(i)
			for j := 0; j < nr; j++ {
				sink += vec.Dot(k, a, right.Row(j))
			}
		}
		return nil
	})
	m.set("vec.dot_f32_gflops", rate(d, flops), pairs)

	lf16, rf16 := mat.EncodeF16(left), mat.EncodeF16(right)
	d, _ = bestOf(kernelReps, func() error {
		for i := 0; i < nl; i++ {
			a := lf16.Row(i)
			for j := 0; j < nr; j++ {
				sink += vec.DotF16(k, a, rf16.Row(j))
			}
		}
		return nil
	})
	m.set("vec.dot_f16_gflops", rate(d, flops), pairs)

	li8, ri8 := quant.EncodeInt8(left), quant.EncodeInt8(right)
	d, _ = bestOf(kernelReps, func() error {
		for i := 0; i < nl; i++ {
			a := li8.Row(i)
			for j := 0; j < nr; j++ {
				sink += float32(quant.DotInt8(k, a, ri8.Row(j)))
			}
		}
		return nil
	})
	m.set("quant.dot_i8_gops", rate(d, flops), pairs)

	dst := mat.New(left.Rows(), right.Rows())
	d, err := bestOf(kernelReps, func() error {
		return mat.MulTransposeInto(dst, left, right, mat.GemmOptions{Threads: 1, Kernel: k})
	})
	if err != nil {
		return err
	}
	m.set("mat.gemm_gflops", rate(d, float64(2*dim*left.Rows()*right.Rows())), left.Rows()*right.Rows())

	// ADC: one lookup table per query, then M byte-indexed lookups per
	// encoded vector; bytes scanned = queries x codes.
	cb, err := quant.TrainPQ(left, quant.PQConfig{Seed: 1})
	if err != nil {
		return err
	}
	codes, err := cb.EncodeAll(left)
	if err != nil {
		return err
	}
	tab := make([]float32, cb.ADCTableSize())
	queries := min(right.Rows(), 64)
	d, err = bestOf(kernelReps, func() error {
		for q := 0; q < queries; q++ {
			if err := cb.ADCTable(right.Row(q), tab); err != nil {
				return err
			}
			for i := 0; i < left.Rows(); i++ {
				sink += quant.ADCScore(tab, cb.K(), codes[i*cb.M():(i+1)*cb.M()])
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("quant.adc_gbps", rate(d, float64(queries*len(codes))), queries*left.Rows())

	// Stream copy: 16 MiB, larger than the last-level cache share; bytes
	// moved = read + write.
	src, cp := make([]float32, 4<<20), make([]float32, 4<<20)
	d, _ = bestOf(kernelReps, func() error { copy(cp, src); return nil })
	sink += cp[0]
	m.set("kernels.copy_gbps", rate(d, float64(2*4*len(src))), len(src))
	return nil
}

// measureIndexes builds IVF-Flat and HNSW over (at most 1024 rows of)
// the larger matrix and probes them with rows of the other, scoring
// recall@10 against brute force. No workload reaches the index access
// path end to end (HTTP ingest cannot create a vector column), so these
// are the only index numbers.
func measureIndexes(left, right *mat.Matrix, m measured) error {
	corpus, probes := right, left
	if left.Rows() > right.Rows() {
		corpus, probes = left, right
	}
	corpus = corpus.Slice(0, min(corpus.Rows(), 1024))
	nq := min(probes.Rows(), 64)
	const k = 10

	truth := make([][]int, nq)
	for q := range truth {
		type scored struct {
			id  int
			sim float32
		}
		all := make([]scored, corpus.Rows())
		for i := range all {
			all[i] = scored{i, vec.Dot(vec.DefaultKernel(), probes.Row(q), corpus.Row(i))}
		}
		sort.Slice(all, func(a, b int) bool { return all[a].sim > all[b].sim })
		for i := 0; i < min(k, len(all)); i++ {
			truth[q] = append(truth[q], all[i].id)
		}
	}
	probe := func(ix vindex.Index, prefix string) error {
		var hits, want int
		d, err := bestOf(1, func() error {
			for q := 0; q < nq; q++ {
				res, err := ix.TopK(probes.Row(q), k, 0, nil)
				if err != nil {
					return err
				}
				got := make(map[int]bool, len(res))
				for _, h := range res {
					got[h.ID] = true
				}
				for _, id := range truth[q] {
					want++
					if got[id] {
						hits++
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		m.set(prefix+".search_us", perItem(d, nq)/1e3, nq)
		m.set(prefix+".recall_at_10", ratio(float64(hits), float64(want)), want)
		return nil
	}

	var ivfIndex *ivf.Index
	d, err := bestOf(1, func() (err error) {
		ivfIndex, err = ivf.Build(corpus, ivf.Config{Seed: 1})
		return err
	})
	if err != nil {
		return err
	}
	m.set("ivf.build_s", d.Seconds(), corpus.Rows())
	if err := probe(ivfIndex, "ivf"); err != nil {
		return err
	}
	rows := make([][]float32, corpus.Rows())
	for i := range rows {
		rows[i] = corpus.Row(i)
	}
	hnswIndex, err := hnsw.Build(rows, hnsw.ConfigLo())
	if err != nil {
		return err
	}
	return probe(hnswIndex, "hnsw")
}

// measureWAL appends upsert batches shaped like the workload's (16 rows)
// to a fresh WAL in a temp dir, fsync included, and reports the time per
// append and the WAL bytes written per byte of user CSV.
func measureWAL(p paths, in *inputs, m measured) error {
	dir, err := os.MkdirTemp(filepath.Join(p.build, "tmp"), "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "wal")
	t0 := time.Now()
	wal, err := mutation.OpenWAL(path, func(mutation.Record) error { return nil })
	if err != nil {
		return err
	}
	defer wal.Close()
	const appends, batchRows = 32, 16
	var userBytes int
	for i := 0; i < appends; i++ {
		rows := in.Probe.Rows[(i*batchRows)%(len(in.Probe.Rows)-batchRows):][:batchRows]
		ids, names, attrs := make(relational.Int64Column, batchRows), make(relational.StringColumn, batchRows), make(relational.Int64Column, batchRows)
		for j, r := range rows {
			ids[j], names[j], attrs[j] = r.ID, r.Name, r.Attr
		}
		batch, err := relational.NewTable(tableSchema, []relational.Column{ids, names, attrs})
		if err != nil {
			return err
		}
		userBytes += len(rowsCSV(rows))
		rec := mutation.Record{Kind: mutation.KindUpsert, Incarnation: 1, Gen: uint64(i + 1), Table: in.Probe.Name, KeyCol: "id", Batch: batch}
		if err := wal.Append(rec); err != nil {
			return err
		}
	}
	elapsed := time.Since(t0)
	m.set("mutation.wal_append_us", perItem(elapsed, appends)/1e3, appends)
	m.set("mutation.wal_bytes_per_user_byte", ratio(float64(wal.Stats().SizeBytes), float64(userBytes)), appends)
	return nil
}
