package configspace

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"wayfinder/internal/rng"
)

// Space is an ordered collection of parameters defining an OS configuration
// space. Order is significant: it fixes the layout of feature vectors fed
// to the learning algorithms.
type Space struct {
	// Name identifies the space (e.g. "linux-6.0", "unikraft-nginx").
	Name string

	params  []*Param
	byName  map[string]int
	favored map[Class]float64 // sampling weight per class (§3.5)
}

// NewSpace returns an empty space with the given name.
func NewSpace(name string) *Space {
	return &Space{
		Name:   name,
		byName: make(map[string]int),
		favored: map[Class]float64{
			CompileTime: 1,
			BootTime:    1,
			Runtime:     1,
		},
	}
}

// Add appends a parameter to the space. Adding a duplicate or invalid
// parameter is an error.
func (s *Space) Add(p *Param) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if _, dup := s.byName[p.Name]; dup {
		return fmt.Errorf("configspace: duplicate parameter %q", p.Name)
	}
	s.byName[p.Name] = len(s.params)
	s.params = append(s.params, p)
	return nil
}

// MustAdd is Add that panics on error, for statically-known spaces.
func (s *Space) MustAdd(p *Param) {
	if err := s.Add(p); err != nil {
		panic(err)
	}
}

// Len returns the number of parameters.
func (s *Space) Len() int { return len(s.params) }

// Param returns the i-th parameter.
func (s *Space) Param(i int) *Param { return s.params[i] }

// Params returns the parameters in order. The returned slice must not be
// modified.
func (s *Space) Params() []*Param { return s.params }

// Lookup returns the parameter with the given name and its index, or nil
// and -1.
func (s *Space) Lookup(name string) (*Param, int) {
	if i, ok := s.byName[name]; ok {
		return s.params[i], i
	}
	return nil, -1
}

// Index returns the index of the named parameter, or -1.
func (s *Space) Index(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Favor biases the class-level sampling weights used when generating random
// configurations or mutations. The paper configures Wayfinder to "favor
// exploration of runtime parameters" for the performance experiments (§4.1)
// and compile-time options for the memory-footprint experiment (§4.4).
func (s *Space) Favor(class Class, weight float64) {
	if weight < 0 {
		weight = 0
	}
	s.favored[class] = weight
}

// ClassWeight returns the sampling weight of a class.
func (s *Space) ClassWeight(class Class) float64 { return s.favored[class] }

// Fix pins the named parameter to a fixed value: the search will not vary
// it (§3.5, security-aware mode). Returns an error for unknown names or
// out-of-domain values.
func (s *Space) Fix(name string, v Value) error {
	p, _ := s.Lookup(name)
	if p == nil {
		return fmt.Errorf("configspace: fix of unknown parameter %q", name)
	}
	if !p.InDomain(v) {
		return fmt.Errorf("configspace: fix of %q to out-of-domain value", name)
	}
	p.Fixed = true
	p.Default = v
	return nil
}

// Census summarizes a space the way the paper's Table 1 does: option counts
// by class, and compile-time counts broken down by type.
type Census struct {
	CompileBool     int
	CompileTristate int
	CompileString   int
	CompileHex      int
	CompileInt      int
	Boot            int
	Runtime         int
}

// Total returns the total number of parameters counted.
func (c Census) Total() int {
	return c.CompileBool + c.CompileTristate + c.CompileString +
		c.CompileHex + c.CompileInt + c.Boot + c.Runtime
}

// Census counts the space's parameters by class and (for compile-time) type.
func (s *Space) Census() Census {
	var c Census
	for _, p := range s.params {
		switch p.Class {
		case BootTime:
			c.Boot++
		case Runtime:
			c.Runtime++
		default:
			switch p.Type {
			case Bool:
				c.CompileBool++
			case Tristate:
				c.CompileTristate++
			case Enum:
				c.CompileString++
			case Hex:
				c.CompileHex++
			case Int:
				c.CompileInt++
			}
		}
	}
	return c
}

// LogCardinality returns log10 of the number of distinct configurations,
// i.e. the size of the search space (Fig 9 quotes 3.7×10¹³ permutations for
// the Unikraft space).
func (s *Space) LogCardinality() float64 {
	sum := 0.0
	for _, p := range s.params {
		if p.Fixed {
			continue
		}
		sum += math.Log10(p.Cardinality())
	}
	return sum
}

// Default returns the OS's default configuration.
func (s *Space) Default() *Config {
	c := newConfig(s)
	for i, p := range s.params {
		c.values[i] = p.Default
	}
	return c
}

// sampleValue draws a uniform value from p's domain. Integer parameters are
// sampled log-uniformly when their range spans multiple orders of magnitude,
// matching how the probing heuristic of §3.4 builds ranges (default scaled
// by powers of ten): a plain uniform draw would almost never visit the
// small end of a [16, 1e7] range.
func sampleValue(p *Param, r *rng.RNG) Value {
	switch p.Type {
	case Bool:
		return BoolValue(r.Bool())
	case Tristate:
		return TriValue(TristateValue(r.Intn(3)))
	case Int, Hex:
		lo, hi := p.Min, p.Max
		if lo == hi {
			return IntValue(lo)
		}
		if lo > 0 && float64(hi)/float64(lo) >= 100 {
			lg := math.Log(float64(lo)) + r.Float64()*(math.Log(float64(hi))-math.Log(float64(lo)))
			v := int64(math.Round(math.Exp(lg)))
			if v < lo {
				v = lo
			}
			if v > hi {
				v = hi
			}
			return IntValue(v)
		}
		return IntValue(lo + r.Int63n(hi-lo+1))
	case Enum:
		return EnumValue(p.Values[r.Intn(len(p.Values))])
	}
	return Value{}
}

// Random returns a configuration with every non-fixed parameter drawn
// uniformly from its domain — the generator behind the random-search
// baseline and Fig 2's 800 random configurations. Parameters whose class
// weight has been set to 0 via Favor stay at their defaults: this is how
// the paper's "favor runtime parameters" / "favor compile-time options"
// search modes (§3.5, §4.1, §4.4) constrain generation.
func (s *Space) Random(r *rng.RNG) *Config {
	c := newConfig(s)
	s.RandomInto(r, c)
	return c
}

// RandomInto overwrites every value of c, which must belong to s, with a
// random draw: the same RNG draws, in the same order, as Random. It lets
// a caller that draws many throwaway candidates (a searcher's scoring
// pool) reuse their storage instead of allocating a Config per draw.
func (s *Space) RandomInto(r *rng.RNG, c *Config) {
	if c.space != s || len(c.values) != len(s.params) {
		panic("configspace: RandomInto with a config of another space")
	}
	for i, p := range s.params {
		if p.Fixed || s.favored[p.Class] <= 0 {
			c.values[i] = p.Default
			continue
		}
		c.values[i] = sampleValue(p, r)
	}
}

// Mutate returns a copy of base with k randomly-chosen non-fixed parameters
// resampled. Parameter choice respects the class weights set via Favor.
// k is clamped to [1, number of mutable parameters].
func (s *Space) Mutate(base *Config, k int, r *rng.RNG) *Config {
	c := base.Clone()
	mutable := make([]int, 0, len(s.params))
	weights := make([]float64, 0, len(s.params))
	for i, p := range s.params {
		if p.Fixed {
			continue
		}
		w := s.favored[p.Class]
		if w <= 0 {
			continue
		}
		mutable = append(mutable, i)
		weights = append(weights, w)
	}
	if len(mutable) == 0 {
		return c
	}
	if k < 1 {
		k = 1
	}
	if k > len(mutable) {
		k = len(mutable)
	}
	seen := make(map[int]bool, k)
	for len(seen) < k {
		pick := mutable[r.Choice(weights)]
		if seen[pick] {
			continue
		}
		seen[pick] = true
		c.values[pick] = sampleValue(s.params[pick], r)
	}
	return c
}

// Neighbor returns a copy of base with one numeric parameter nudged to an
// adjacent magnitude (×/÷ step) or one categorical parameter re-drawn —
// the local move used by exploitation-heavy candidate pools.
func (s *Space) Neighbor(base *Config, r *rng.RNG) *Config {
	c := base.Clone()
	mutable := make([]int, 0, len(s.params))
	weights := make([]float64, 0, len(s.params))
	for i, p := range s.params {
		if p.Fixed {
			continue
		}
		w := s.favored[p.Class]
		if w <= 0 {
			continue
		}
		mutable = append(mutable, i)
		weights = append(weights, w)
	}
	if len(mutable) == 0 {
		return c
	}
	pick := mutable[r.Choice(weights)]
	p := s.params[pick]
	switch p.Type {
	case Int, Hex:
		cur := c.values[pick].I
		factor := 1.0 + r.Float64() // step in [1,2)
		var next int64
		if r.Bool() {
			next = int64(math.Round(float64(cur) * factor))
		} else {
			next = int64(math.Round(float64(cur) / factor))
		}
		if next == cur {
			next = cur + 1
		}
		if next < p.Min {
			next = p.Min
		}
		if next > p.Max {
			next = p.Max
		}
		c.values[pick] = IntValue(next)
	default:
		c.values[pick] = sampleValue(p, r)
	}
	return c
}

// SetDefaultsFrom rebases every parameter's default onto the values of
// the given configuration. Searches that pin a class (weight 0) or mutate
// from the default will then operate around this baseline — how Wayfinder
// layers its runtime search on top of a Cozart-debloated compile-time
// configuration (§4.4, Fig 11).
func (s *Space) SetDefaultsFrom(c *Config) error {
	if c.space != s {
		return fmt.Errorf("configspace: SetDefaultsFrom with config from a different space")
	}
	for i, p := range s.params {
		if !p.InDomain(c.values[i]) {
			return fmt.Errorf("configspace: %s: baseline value out of domain", p.Name)
		}
		p.Default = c.values[i]
	}
	return nil
}

// Fingerprint returns a stable content digest of the space's structure:
// its name plus every parameter's name, type, class, domain, default and
// fixedness, in definition order. Two Space values with the same
// fingerprint define the same configuration space, so cross-session
// consumers (the transfer corpus) can match entries to a space without
// holding a pointer to it. Sampling weights set via Favor are deliberately
// excluded: they steer generation, not the space itself.
func (s *Space) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "space %s\n", s.Name)
	for _, p := range s.params {
		fmt.Fprintf(h, "param %s %s %s min=%d max=%d fixed=%v default=%s values=%q\n",
			p.Name, p.Type, p.Class, p.Min, p.Max, p.Fixed,
			p.FormatValue(p.Default), p.Values)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// SortedNames returns the parameter names in lexical order, for stable
// reporting.
func (s *Space) SortedNames() []string {
	names := make([]string, len(s.params))
	for i, p := range s.params {
		names[i] = p.Name
	}
	sort.Strings(names)
	return names
}
