package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// geomean returns the geometric mean of xs; 0 if any value is not
// positive or xs is empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// samples holds, per metric name, one list of observations per row. A
// row is one timed op kind of the workload (a program, or a program and
// a leg), so that every aggregate is taken over per-row medians and a
// slow row cannot hide behind a fast one.
type samples struct {
	rows int
	v    map[string][][]float64
}

func newSamples(rows int) *samples {
	return &samples{rows: rows, v: map[string][][]float64{}}
}

func (s *samples) add(name string, row int, x float64) {
	r := s.v[name]
	if r == nil {
		r = make([][]float64, s.rows)
		s.v[name] = r
	}
	r[row] = append(r[row], x)
}

// rowwise returns stat of each row's observations of name for the given
// rows (all rows when none are given), skipping rows with no observation,
// and the total observation count.
func (s *samples) rowwise(name string, stat func([]float64) float64, rows ...int) ([]float64, int) {
	r := s.v[name]
	if r == nil {
		return nil, 0
	}
	if len(rows) == 0 {
		rows = make([]int, s.rows)
		for i := range rows {
			rows[i] = i
		}
	}
	var vs []float64
	n := 0
	for _, i := range rows {
		if len(r[i]) == 0 {
			continue
		}
		vs = append(vs, stat(r[i]))
		n += len(r[i])
	}
	return vs, n
}

// medians returns the per-row medians of name.
func (s *samples) medians(name string, rows ...int) ([]float64, int) {
	return s.rowwise(name, median, rows...)
}

// geo is the geometric mean over rows of the per-row median: the
// aggregate of every end-to-end timing.
func (s *samples) geo(name string, rows ...int) (float64, int) {
	ms, n := s.medians(name, rows...)
	return geomean(ms), n
}

// mean is the arithmetic mean over rows of the per-row median: the
// aggregate of every per-layer timing ("the average op spends this long
// here"), which keeps shares between layers meaningful and tolerates
// rows where a layer does no work.
func (s *samples) mean(name string, rows ...int) (float64, int) {
	ms, n := s.medians(name, rows...)
	if len(ms) == 0 {
		return 0, 0
	}
	return s.sum(name, rows...) / float64(len(ms)), n
}

// sum is the sum over rows of the per-row median: the aggregate of
// every count ("one pass over the rows performs this many").
func (s *samples) sum(name string, rows ...int) float64 {
	ms, _ := s.medians(name, rows...)
	t := 0.0
	for _, m := range ms {
		t += m
	}
	return t
}
