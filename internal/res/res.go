// Package res models the edge-cloud resource dimensions used throughout
// Tango: CPU (millicores), memory (MiB) and network bandwidth (Mbps).
//
// Following §4.1 of the paper, resources are classified as compressible
// (CPU, bandwidth — shares can be transferred to LC services without
// killing the holder) or incompressible (memory, disk — reclaiming them
// requires evicting and later restarting the BE service that holds them).
package res

import "fmt"

// Kind identifies one resource dimension.
type Kind int

const (
	CPU Kind = iota // millicores
	Memory
	Bandwidth
	numKinds
)

// Kinds lists every resource dimension in canonical order.
var Kinds = [...]Kind{CPU, Memory, Bandwidth}

// String returns the conventional short name for the resource kind.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "cpu"
	case Memory:
		return "memory"
	case Bandwidth:
		return "bandwidth"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Vector is an amount of each resource. CPU is in millicores, Memory in
// MiB, Bandwidth in Mbps. The zero Vector is empty.
type Vector struct {
	MilliCPU  int64
	MemoryMiB int64
	BWMbps    int64
}

// V is shorthand for constructing a Vector.
func V(milliCPU, memoryMiB, bwMbps int64) Vector {
	return Vector{MilliCPU: milliCPU, MemoryMiB: memoryMiB, BWMbps: bwMbps}
}

// Get returns the amount of one dimension.
func (v Vector) Get(k Kind) int64 {
	switch k {
	case CPU:
		return v.MilliCPU
	case Memory:
		return v.MemoryMiB
	case Bandwidth:
		return v.BWMbps
	}
	panic(fmt.Sprintf("res: unknown kind %d", int(k)))
}

// Set returns a copy of v with dimension k replaced by amount.
func (v Vector) Set(k Kind, amount int64) Vector {
	switch k {
	case CPU:
		v.MilliCPU = amount
	case Memory:
		v.MemoryMiB = amount
	case Bandwidth:
		v.BWMbps = amount
	default:
		panic(fmt.Sprintf("res: unknown kind %d", int(k)))
	}
	return v
}

// Add returns v + w.
func (v Vector) Add(w Vector) Vector {
	return Vector{v.MilliCPU + w.MilliCPU, v.MemoryMiB + w.MemoryMiB, v.BWMbps + w.BWMbps}
}

// Sub returns v - w. The result may be negative; use Fits to test
// admissibility first.
func (v Vector) Sub(w Vector) Vector {
	return Vector{v.MilliCPU - w.MilliCPU, v.MemoryMiB - w.MemoryMiB, v.BWMbps - w.BWMbps}
}

// Scale returns v scaled by a rational factor num/den, rounding toward zero.
func (v Vector) Scale(num, den int64) Vector {
	if den == 0 {
		panic("res: Scale by zero denominator")
	}
	return Vector{v.MilliCPU * num / den, v.MemoryMiB * num / den, v.BWMbps * num / den}
}

// ScaleFloat returns v scaled by f, rounding each dimension to nearest.
func (v Vector) ScaleFloat(f float64) Vector {
	round := func(x float64) int64 {
		if x >= 0 {
			return int64(x + 0.5)
		}
		return int64(x - 0.5)
	}
	return Vector{
		round(float64(v.MilliCPU) * f),
		round(float64(v.MemoryMiB) * f),
		round(float64(v.BWMbps) * f),
	}
}

// Fits reports whether w can be carved out of v, i.e. w <= v in every
// dimension.
func (v Vector) Fits(w Vector) bool {
	return w.MilliCPU <= v.MilliCPU && w.MemoryMiB <= v.MemoryMiB && w.BWMbps <= v.BWMbps
}

// IsZero reports whether every dimension is zero.
func (v Vector) IsZero() bool { return v == Vector{} }

// Nonnegative reports whether every dimension is >= 0.
func (v Vector) Nonnegative() bool {
	return v.MilliCPU >= 0 && v.MemoryMiB >= 0 && v.BWMbps >= 0
}

// Max returns the element-wise maximum of v and w.
func (v Vector) Max(w Vector) Vector {
	return Vector{max64(v.MilliCPU, w.MilliCPU), max64(v.MemoryMiB, w.MemoryMiB), max64(v.BWMbps, w.BWMbps)}
}

// Min returns the element-wise minimum of v and w.
func (v Vector) Min(w Vector) Vector {
	return Vector{min64(v.MilliCPU, w.MilliCPU), min64(v.MemoryMiB, w.MemoryMiB), min64(v.BWMbps, w.BWMbps)}
}

// Clamp returns v limited to [lo, hi] element-wise.
func (v Vector) Clamp(lo, hi Vector) Vector { return v.Max(lo).Min(hi) }

// DominantShare returns the largest ratio v[k]/cap[k] over dimensions where
// cap[k] > 0. This is the "dominant resource" load measure used by the
// load-greedy baseline and by DCG-BE's short-term reward.
func (v Vector) DominantShare(capacity Vector) float64 {
	share := 0.0
	for _, k := range Kinds {
		c := capacity.Get(k)
		if c <= 0 {
			continue
		}
		if s := float64(v.Get(k)) / float64(c); s > share {
			share = s
		}
	}
	return share
}

// CapacityCount returns how many requests demanding `demand` fit inside v,
// i.e. min over dimensions of floor(v[k]/demand[k]) for demand[k] > 0
// (Eq. 2 of the paper, without the sign convention). Returns 0 if any
// demanded dimension exceeds what is available, and a large number if the
// demand is zero in every dimension.
func (v Vector) CapacityCount(demand Vector) int64 {
	const unbounded = int64(1) << 40
	count := unbounded
	for _, k := range Kinds {
		d := demand.Get(k)
		if d <= 0 {
			continue
		}
		have := v.Get(k)
		if have < 0 {
			have = 0
		}
		if c := have / d; c < count {
			count = c
		}
	}
	return count
}

// String formats the vector compactly, e.g. "cpu=2000m mem=4096Mi bw=100Mbps".
func (v Vector) String() string {
	return fmt.Sprintf("cpu=%dm mem=%dMi bw=%dMbps", v.MilliCPU, v.MemoryMiB, v.BWMbps)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
