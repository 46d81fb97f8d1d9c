// Fixture for the maporder analyzer: order-sensitive ranges over maps are
// diagnostics; the sorted-keys idiom and commutative bodies pass.
package maporder

import "sort"

func appendValues(m map[string]int) []int {
	var out []int
	for _, v := range m { // want "map iteration order is randomized"
		out = append(out, v)
	}
	return out
}

func foldHash(m map[string]int) int {
	h := 7
	for _, v := range m { // want "map iteration order is randomized"
		h = h*31 + v
	}
	return h
}

// A float fold over a map is order-sensitive: addition does not associate.
func sumMap(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want "map iteration order is randomized"
		sum += v
	}
	return sum
}

func firstMatch(m map[string]bool) string {
	for k, ok := range m { // want "map iteration order is randomized"
		if ok {
			return k
		}
	}
	return ""
}

// sorted-keys idiom: collect, sort, then iterate the slice.
func sortedKeys(m map[string]int) []int {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]int, 0, len(m))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// commutative body: keyed writes, integer counters, delete, continue.
func invertAndCount(m map[string]int) (map[int]string, int) {
	inv := make(map[int]string, len(m))
	total := 0
	for k, v := range m {
		if v < 0 {
			continue
		}
		inv[v] = k
		total += v
		if v > 100 {
			total++
		} else if v == 0 {
			total--
		}
	}
	return inv, total
}

func prune(m map[string]int) {
	for k, v := range m {
		if v == 0 {
			delete(m, k)
		}
	}
}
