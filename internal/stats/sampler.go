package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// RNG is the deterministic random source used throughout the reproduction.
// It wraps math/rand.Rand so all experiments are reproducible from a seed.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG with the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0, n). It panics if n ≤ 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Exp returns an exponentially distributed sample with the given mean.
// It is used for Poisson job inter-arrival times.
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// LogUniform returns a sample drawn log-uniformly from [lo, hi].
// Job input sizes within one band of the FB-2009 CDF are spread this way so
// that every decade of sizes is equally represented, as in the trace's
// straight-line CDF segments on a log axis (paper Fig. 3).
func (g *RNG) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi <= 0 {
		panic(fmt.Sprintf("stats: LogUniform bounds must be positive, got [%v, %v]", lo, hi))
	}
	if hi < lo {
		lo, hi = hi, lo
	}
	if lo == hi {
		return lo
	}
	u := g.r.Float64()
	return math.Exp(math.Log(lo) + u*(math.Log(hi)-math.Log(lo)))
}

// LogUniformVar is a log-uniform variate with the bounds' logarithms
// precomputed, for hot paths that draw many samples from one [lo, hi]
// (e.g. the straggler jitter multiplier, sampled once per task attempt).
// Sample performs the same arithmetic as LogUniform in the same operation
// order and consumes one uniform draw, so a stream of samples is bit-for-bit
// identical to calling LogUniform(lo, hi) each time.
type LogUniformVar struct {
	lo, hi      float64
	logLo, span float64
}

// NewLogUniformVar validates the bounds once and caches their logs.
func NewLogUniformVar(lo, hi float64) LogUniformVar {
	if lo <= 0 || hi <= 0 {
		panic(fmt.Sprintf("stats: LogUniform bounds must be positive, got [%v, %v]", lo, hi))
	}
	if hi < lo {
		lo, hi = hi, lo
	}
	return LogUniformVar{lo: lo, hi: hi, logLo: math.Log(lo), span: math.Log(hi) - math.Log(lo)}
}

// Sample draws one log-uniform sample from the variate's bounds.
func (v LogUniformVar) Sample(g *RNG) float64 {
	if v.lo == v.hi {
		return v.lo
	}
	u := g.r.Float64()
	return math.Exp(v.logLo + u*v.span)
}

// Zipf returns a Zipf-distributed rank in [1, n] with exponent s > 1 is not
// required; s may be any value ≥ 0 (s = 0 is uniform). It uses rejection-free
// inverse-CDF sampling over a precomputed table when called through
// NewZipfTable; the direct method here is O(n) per call and intended only
// for small n.
func (g *RNG) Zipf(n int, s float64) int {
	if n <= 0 {
		panic("stats: Zipf needs n > 0")
	}
	var total float64
	for k := 1; k <= n; k++ {
		total += 1 / math.Pow(float64(k), s)
	}
	u := g.r.Float64() * total
	var acc float64
	for k := 1; k <= n; k++ {
		acc += 1 / math.Pow(float64(k), s)
		if u <= acc {
			return k
		}
	}
	return n
}

// ZipfTable samples Zipf-distributed ranks in [1, n] in O(log n) per draw.
type ZipfTable struct {
	cum []float64 // cum[i] = P(rank ≤ i+1), strictly increasing to 1
}

// NewZipfTable precomputes the inverse CDF for a Zipf distribution over
// ranks 1..n with exponent s ≥ 0.
func NewZipfTable(n int, s float64) *ZipfTable {
	if n <= 0 {
		panic("stats: NewZipfTable needs n > 0")
	}
	cum := make([]float64, n)
	var total float64
	for k := 1; k <= n; k++ {
		total += 1 / math.Pow(float64(k), s)
		cum[k-1] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &ZipfTable{cum: cum}
}

// Sample draws one rank in [1, n].
func (z *ZipfTable) Sample(g *RNG) int {
	u := g.Float64()
	i := sort.SearchFloat64s(z.cum, u)
	if i >= len(z.cum) {
		i = len(z.cum) - 1
	}
	return i + 1
}

// Band is one segment of a piecewise size distribution: with probability
// Weight (relative), the sample is drawn log-uniformly from [Lo, Hi].
type Band struct {
	Weight float64
	Lo, Hi float64
}

// PiecewiseLogSampler samples from a mixture of log-uniform bands. The
// FB-2009 input-size distribution (40 % below 1 MB, 49 % between 1 MB and
// 30 GB, 11 % above 30 GB — paper Fig. 3) is expressed as three such bands.
type PiecewiseLogSampler struct {
	bands []Band
	cum   []float64
}

// NewPiecewiseLogSampler validates and normalizes the bands. It returns an
// error if there are no bands, a weight is negative, all weights are zero,
// or a band has non-positive or inverted bounds.
func NewPiecewiseLogSampler(bands []Band) (*PiecewiseLogSampler, error) {
	if len(bands) == 0 {
		return nil, fmt.Errorf("stats: no bands")
	}
	var total float64
	for i, b := range bands {
		if b.Weight < 0 {
			return nil, fmt.Errorf("stats: band %d has negative weight %v", i, b.Weight)
		}
		if b.Lo <= 0 || b.Hi <= 0 || b.Hi < b.Lo {
			return nil, fmt.Errorf("stats: band %d has bad bounds [%v, %v]", i, b.Lo, b.Hi)
		}
		total += b.Weight
	}
	if total == 0 {
		return nil, fmt.Errorf("stats: all band weights are zero")
	}
	s := &PiecewiseLogSampler{bands: append([]Band(nil), bands...)}
	var acc float64
	for _, b := range s.bands {
		acc += b.Weight / total
		s.cum = append(s.cum, acc)
	}
	s.cum[len(s.cum)-1] = 1 // guard against rounding
	return s, nil
}

// Sample draws one value.
func (s *PiecewiseLogSampler) Sample(g *RNG) float64 {
	v, _ := s.SampleWithBand(g)
	return v
}

// SampleWithBand draws one value and reports which band produced it.
func (s *PiecewiseLogSampler) SampleWithBand(g *RNG) (float64, int) {
	u := g.Float64()
	i := sort.SearchFloat64s(s.cum, u)
	if i >= len(s.bands) {
		i = len(s.bands) - 1
	}
	b := s.bands[i]
	return g.LogUniform(b.Lo, b.Hi), i
}
