package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// HistBuckets is the number of finite latency buckets: powers of two of
// one microsecond, 1µs … ~33.5s. Everything slower lands in +Inf.
const HistBuckets = 26

// histBound returns bucket i's inclusive upper bound.
func histBound(i int) time.Duration { return time.Microsecond << i }

// Histogram is a lock-free log-bucketed latency histogram: fixed
// power-of-two-microsecond buckets, atomic increments, no allocation on
// the observe path. The zero value is ready to use.
type Histogram struct {
	counts [HistBuckets + 1]atomic.Uint64 // last = +Inf
	sumNS  atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	// Bucket index: the smallest i with ns <= 1µs<<i.
	us := uint64(ns+999) / 1000
	idx := 0
	if us > 1 {
		idx = bits.Len64(us - 1)
	}
	if idx > HistBuckets {
		idx = HistBuckets
	}
	h.counts[idx].Add(1)
	h.sumNS.Add(ns)
}

// Snapshot copies the bucket counts (cumulative count and sum derive from
// it). The copy is not an atomic cut across buckets — standard for
// metrics scrapes — but cumulative rendering stays internally consistent
// because it is computed from this one copy.
func (h *Histogram) Snapshot() (counts [HistBuckets + 1]uint64, sumNS int64) {
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.sumNS.Load()
}

// Count is the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// HistogramVec is a histogram family over one label's values (e.g. one
// latency histogram per join strategy). Lookup is read-locked; the
// histograms themselves stay lock-free.
type HistogramVec struct {
	mu sync.RWMutex
	m  map[string]*Histogram
}

// With returns the histogram for one label value, creating it on first use.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h := v.m[value]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.m == nil {
		v.m = make(map[string]*Histogram)
	}
	if h = v.m[value]; h == nil {
		h = &Histogram{}
		v.m[value] = h
	}
	return h
}

// Each visits the family's histograms in sorted label order.
func (v *HistogramVec) Each(fn func(value string, h *Histogram)) {
	v.mu.RLock()
	keys := make([]string, 0, len(v.m))
	for k := range v.m {
		keys = append(keys, k)
	}
	hs := make(map[string]*Histogram, len(v.m))
	for k, h := range v.m {
		hs[k] = h
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		fn(k, hs[k])
	}
}

// MetricsWriter renders Prometheus text exposition format (version
// 0.0.4) without external dependencies. Families must be written whole
// (header, then samples) and in one pass; callers get determinism by
// writing families and label values in sorted order.
type MetricsWriter struct {
	w   io.Writer
	err error
}

// NewMetricsWriter wraps w. Errors are sticky; check Err once at the end.
func NewMetricsWriter(w io.Writer) *MetricsWriter { return &MetricsWriter{w: w} }

// Err returns the first write error.
func (mw *MetricsWriter) Err() error { return mw.err }

func (mw *MetricsWriter) printf(format string, args ...any) {
	if mw.err != nil {
		return
	}
	_, mw.err = fmt.Fprintf(mw.w, format, args...)
}

// Family writes a family header. typ is counter, gauge, or histogram.
func (mw *MetricsWriter) Family(name, typ, help string) {
	mw.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// Sample writes one sample line. labels are name/value pairs.
func (mw *MetricsWriter) Sample(name string, labels []string, v float64) {
	mw.printf("%s%s %s\n", name, renderLabels(labels), formatValue(v))
}

// Counter writes a complete single-sample counter family.
func (mw *MetricsWriter) Counter(name, help string, v float64) {
	mw.Family(name, "counter", help)
	mw.Sample(name, nil, v)
}

// Gauge writes a complete single-sample gauge family.
func (mw *MetricsWriter) Gauge(name, help string, v float64) {
	mw.Family(name, "gauge", help)
	mw.Sample(name, nil, v)
}

// HistogramSamples writes one histogram's _bucket/_sum/_count series
// under an already-written family header, with labels appended to each
// bucket's le label.
func (mw *MetricsWriter) HistogramSamples(name string, labels []string, h *Histogram) {
	counts, sumNS := h.Snapshot()
	// Never append into the caller's slice: reuse of its backing array
	// across bucket lines would corrupt earlier renders.
	withLE := func(le string) []string {
		out := make([]string, 0, len(labels)+2)
		return append(append(out, labels...), "le", le)
	}
	var cum uint64
	for i := 0; i < HistBuckets; i++ {
		cum += counts[i]
		le := strconv.FormatFloat(histBound(i).Seconds(), 'g', -1, 64)
		mw.printf("%s_bucket%s %d\n", name, renderLabels(withLE(le)), cum)
	}
	cum += counts[HistBuckets]
	mw.printf("%s_bucket%s %d\n", name, renderLabels(withLE("+Inf")), cum)
	mw.printf("%s_sum%s %s\n", name, renderLabels(labels), formatValue(float64(sumNS)/1e9))
	mw.printf("%s_count%s %d\n", name, renderLabels(labels), cum)
}

// Histogram writes a complete one-histogram family.
func (mw *MetricsWriter) Histogram(name, help string, h *Histogram) {
	mw.Family(name, "histogram", help)
	mw.HistogramSamples(name, nil, h)
}

// FloatHistogram writes a complete histogram family from generic
// snapshot data: counts has one entry per bound plus a final implicit
// +Inf bucket, and sum is the running sum of observed values. This is
// the exposition hook for histograms over unitless values (recall,
// q-error) that the duration-bucketed Histogram cannot hold.
func (mw *MetricsWriter) FloatHistogram(name, help string, bounds []float64, counts []uint64, sum float64) {
	mw.Family(name, "histogram", help)
	var cum uint64
	for i, b := range bounds {
		if i < len(counts) {
			cum += counts[i]
		}
		le := strconv.FormatFloat(b, 'g', -1, 64)
		mw.printf("%s_bucket%s %d\n", name, renderLabels([]string{"le", le}), cum)
	}
	if len(counts) > len(bounds) {
		cum += counts[len(bounds)]
	}
	mw.printf("%s_bucket%s %d\n", name, renderLabels([]string{"le", "+Inf"}), cum)
	mw.printf("%s_sum %s\n", name, formatValue(sum))
	mw.printf("%s_count %d\n", name, cum)
}

// HistogramVec writes a complete histogram family with one series per
// label value, in sorted order.
func (mw *MetricsWriter) HistogramVec(name, help, label string, v *HistogramVec) {
	mw.Family(name, "histogram", help)
	v.Each(func(value string, h *Histogram) {
		mw.HistogramSamples(name, []string{label, value}, h)
	})
}

func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
