// Copyright 2022 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the Go distribution's LICENSE file.
//
// sortIdx is slices.pdqsortCmpFunc (Go 1.24 slices/zsortanyfunc.go)
// and its helpers, specialised to permute []int indices by a []float64
// key with the comparison inlined.

package ga

import "math/bits"

// sortIdx sorts idx so that key[idx[i]] ascends, at least over its
// first head positions. It makes exactly the decisions slices.SortFunc
// makes on idx with the comparator
//
//	func(a, b int) int { switch { case key[a] < key[b]: return -1; case key[a] > key[b]: return 1 }; return 0 }
//
// because pdqsort consults its comparator only as cmp(x, y) < 0, which
// for this comparator is key[x] < key[y]. Equal keys therefore land in
// the same (unstable) order the library sort gives them, so migrant
// selection keeps its pinned tie order, now fixed in this file rather
// than by the toolchain's slices internals.
//
// head = len(idx) is the full sort. A smaller head skips every
// sub-range the sort would process that starts at or past head, so
// idx[:head] ends exactly as the full sort leaves it, and idx[head:]
// holds the remaining indices in an unspecified order. That is exact
// because a sub-range [a, b) writes only its own positions and reads
// only the pivot at a-1, which stays fixed while the sub-range runs:
// partitioning leaves nothing to the right of a pivot that compares
// less than it (NaN keys included, since every comparison with NaN is
// false), so partialInsertionSortIdx's leftward shift stops at a.
// The positions below head therefore see the same operations whether
// or not the sub-ranges past head are sorted.
func sortIdx(idx []int, key []float64, head int) {
	n := len(idx)
	pdqsortIdx(idx, key, 0, n, bits.Len(uint(n)), head)
}

// insertionSortIdx sorts data[a:b] using insertion sort.
func insertionSortIdx(data []int, key []float64, a, b int) {
	for i := a + 1; i < b; i++ {
		for j := i; j > a && key[data[j]] < key[data[j-1]]; j-- {
			data[j], data[j-1] = data[j-1], data[j]
		}
	}
}

// siftDownIdx implements the heap property on data[lo:hi]. first is an
// offset into the array where the root of the heap lies.
func siftDownIdx(data []int, key []float64, lo, hi, first int) {
	root := lo
	for {
		child := 2*root + 1
		if child >= hi {
			break
		}
		if child+1 < hi && key[data[first+child]] < key[data[first+child+1]] {
			child++
		}
		if !(key[data[first+root]] < key[data[first+child]]) {
			return
		}
		data[first+root], data[first+child] = data[first+child], data[first+root]
		root = child
	}
}

func heapSortIdx(data []int, key []float64, a, b int) {
	first := a
	lo := 0
	hi := b - a

	// Build heap with greatest element at top.
	for i := (hi - 1) / 2; i >= 0; i-- {
		siftDownIdx(data, key, i, hi, first)
	}

	// Pop elements, largest first, into end of data.
	for i := hi - 1; i >= 0; i-- {
		data[first], data[first+i] = data[first+i], data[first]
		siftDownIdx(data, key, lo, i, first)
	}
}

// sortedHint is a hint for pdqsort when choosing the pivot.
type sortedHint int

const (
	unknownHint sortedHint = iota
	increasingHint
	decreasingHint
)

// xorshift is the pattern breaker's generator (Marsaglia's xorshift).
type xorshift uint64

func (r *xorshift) Next() uint64 {
	*r ^= *r << 13
	*r ^= *r >> 7
	*r ^= *r << 17
	return uint64(*r)
}

func nextPowerOfTwo(length int) uint {
	return 1 << bits.Len(uint(length))
}

// pdqsortIdx sorts data[a:b]: pattern-defeating quicksort without the
// BlockQuicksort optimizations. limit is the number of allowed bad
// (very unbalanced) pivots before falling back to heapsort. A
// sub-range that starts at or past head is left unsorted.
func pdqsortIdx(data []int, key []float64, a, b, limit, head int) {
	const maxInsertion = 12

	var (
		wasBalanced    = true // whether the last partitioning was reasonably balanced
		wasPartitioned = true // whether the slice was already partitioned
	)

	for {
		if a >= head {
			return
		}
		length := b - a

		if length <= maxInsertion {
			insertionSortIdx(data, key, a, b)
			return
		}

		// Fall back to heapsort if too many bad choices were made.
		if limit == 0 {
			heapSortIdx(data, key, a, b)
			return
		}

		// If the last partitioning was imbalanced, we need to breaking patterns.
		if !wasBalanced {
			breakPatternsIdx(data, a, b)
			limit--
		}

		pivot, hint := choosePivotIdx(data, key, a, b)
		if hint == decreasingHint {
			reverseRangeIdx(data, a, b)
			// The chosen pivot was pivot-a elements after the start of the array.
			// After reversing it is pivot-a elements before the end of the array.
			pivot = (b - 1) - (pivot - a)
			hint = increasingHint
		}

		// The slice is likely already sorted.
		if wasBalanced && wasPartitioned && hint == increasingHint {
			if partialInsertionSortIdx(data, key, a, b) {
				return
			}
		}

		// Probably the slice contains many duplicate elements, partition the slice into
		// elements equal to and elements greater than the pivot.
		if a > 0 && !(key[data[a-1]] < key[data[pivot]]) {
			mid := partitionEqualIdx(data, key, a, b, pivot)
			a = mid
			continue
		}

		mid, alreadyPartitioned := partitionIdx(data, key, a, b, pivot)
		wasPartitioned = alreadyPartitioned

		leftLen, rightLen := mid-a, b-mid
		balanceThreshold := length / 8
		if leftLen < rightLen {
			wasBalanced = leftLen >= balanceThreshold
			pdqsortIdx(data, key, a, mid, limit, head)
			a = mid + 1
		} else {
			wasBalanced = rightLen >= balanceThreshold
			pdqsortIdx(data, key, mid+1, b, limit, head)
			b = mid
		}
	}
}

// partitionIdx does one quicksort partition. Let p = data[pivot]. It
// moves elements in data[a:b] around, so that data[i]<p and data[j]>=p
// for i<newpivot and j>newpivot. On return, data[newpivot] = p.
func partitionIdx(data []int, key []float64, a, b, pivot int) (newpivot int, alreadyPartitioned bool) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned

	for i <= j && key[data[i]] < key[data[a]] {
		i++
	}
	for i <= j && !(key[data[j]] < key[data[a]]) {
		j--
	}
	if i > j {
		data[j], data[a] = data[a], data[j]
		return j, true
	}
	data[i], data[j] = data[j], data[i]
	i++
	j--

	for {
		for i <= j && key[data[i]] < key[data[a]] {
			i++
		}
		for i <= j && !(key[data[j]] < key[data[a]]) {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	data[j], data[a] = data[a], data[j]
	return j, false
}

// partitionEqualIdx partitions data[a:b] into elements equal to
// data[pivot] followed by elements greater than data[pivot]. It assumes
// data[a:b] holds no element smaller than data[pivot].
func partitionEqualIdx(data []int, key []float64, a, b, pivot int) (newpivot int) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned

	for {
		for i <= j && !(key[data[a]] < key[data[i]]) {
			i++
		}
		for i <= j && key[data[a]] < key[data[j]] {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	return i
}

// partialInsertionSortIdx partially sorts a slice, returning true if
// the slice is sorted at the end.
func partialInsertionSortIdx(data []int, key []float64, a, b int) bool {
	const (
		maxSteps         = 5  // maximum number of adjacent out-of-order pairs that will get shifted
		shortestShifting = 50 // don't shift any elements on short arrays
	)
	i := a + 1
	for j := 0; j < maxSteps; j++ {
		for i < b && !(key[data[i]] < key[data[i-1]]) {
			i++
		}

		if i == b {
			return true
		}

		if b-a < shortestShifting {
			return false
		}

		data[i], data[i-1] = data[i-1], data[i]

		// Shift the smaller one to the left. The library sort runs this
		// down to j >= 1, but nothing in data[a:b] compares less than the
		// pivot at a-1 (when a > 0), so the shift always stops at a.
		if i-a >= 2 {
			for j := i - 1; j > a; j-- {
				if !(key[data[j]] < key[data[j-1]]) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
		// Shift the greater one to the right.
		if b-i >= 2 {
			for j := i + 1; j < b; j++ {
				if !(key[data[j]] < key[data[j-1]]) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
	}
	return false
}

// breakPatternsIdx scatters some elements around in an attempt to break
// some patterns that might cause imbalanced partitions in quicksort.
func breakPatternsIdx(data []int, a, b int) {
	length := b - a
	if length >= 8 {
		random := xorshift(length)
		modulus := nextPowerOfTwo(length)

		for idx := a + (length/4)*2 - 1; idx <= a+(length/4)*2+1; idx++ {
			other := int(uint(random.Next()) & (modulus - 1))
			if other >= length {
				other -= length
			}
			data[idx], data[a+other] = data[a+other], data[idx]
		}
	}
}

// choosePivotIdx chooses a pivot in data[a:b]:
//
//	[0,8): a static pivot;
//	[8,shortestNinther): the simple median-of-three method;
//	[shortestNinther,∞): the Tukey ninther method.
func choosePivotIdx(data []int, key []float64, a, b int) (pivot int, hint sortedHint) {
	const (
		shortestNinther = 50
		maxSwaps        = 4 * 3
	)

	l := b - a

	var (
		swaps int
		i     = a + l/4*1
		j     = a + l/4*2
		k     = a + l/4*3
	)

	if l >= 8 {
		if l >= shortestNinther {
			// Tukey ninther method, the idea came from Rust's implementation.
			i = medianAdjacentIdx(data, key, i, &swaps)
			j = medianAdjacentIdx(data, key, j, &swaps)
			k = medianAdjacentIdx(data, key, k, &swaps)
		}
		// Find the median among i, j, k and stores it into j.
		j = medianIdx(data, key, i, j, k, &swaps)
	}

	switch swaps {
	case 0:
		return j, increasingHint
	case maxSwaps:
		return j, decreasingHint
	default:
		return j, unknownHint
	}
}

// order2Idx returns x,y where data[x] <= data[y], where x,y=a,b or x,y=b,a.
func order2Idx(data []int, key []float64, a, b int, swaps *int) (int, int) {
	if key[data[b]] < key[data[a]] {
		*swaps++
		return b, a
	}
	return a, b
}

// medianIdx returns x where data[x] is the median of data[a],data[b],data[c], where x is a, b, or c.
func medianIdx(data []int, key []float64, a, b, c int, swaps *int) int {
	a, b = order2Idx(data, key, a, b, swaps)
	b, c = order2Idx(data, key, b, c, swaps)
	a, b = order2Idx(data, key, a, b, swaps)
	return b
}

// medianAdjacentIdx finds the median of data[a - 1], data[a], data[a + 1] and stores the index into a.
func medianAdjacentIdx(data []int, key []float64, a int, swaps *int) int {
	return medianIdx(data, key, a-1, a, a+1, swaps)
}

func reverseRangeIdx(data []int, a, b int) {
	i := a
	j := b - 1
	for i < j {
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
}
