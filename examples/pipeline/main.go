// Pipeline: chained jobs on the real execution engine — the production
// pattern the paper's workload traces are full of. Stage 1 runs Wordcount;
// stage 2 reads stage 1's output from the shared OFS-like store and keeps
// only the frequent words (TopK); stage 3 sorts them. Because both the
// paper's clusters mount the same remote file system, a pipeline's stages
// can run on different clusters without copying data — the §IV storage
// argument, demonstrated on actual bytes.
package main

import (
	"bytes"
	"fmt"
	"log"

	"hybridmr/internal/corpus"
	"hybridmr/internal/engine"
	"hybridmr/internal/units"
)

func main() {
	text, err := corpus.Generate(corpus.DefaultConfig(), units.MB)
	if err != nil {
		log.Fatal(err)
	}

	// One shared remote store for every stage, like the hybrid's OFS.
	store, err := engine.NewMemOFS(32, 128*units.KB)
	if err != nil {
		log.Fatal(err)
	}
	if err := store.Create("wiki", text); err != nil {
		log.Fatal(err)
	}

	// Stage 1: wordcount (a "scale-out shaped" stage: many map tasks).
	wc, err := engine.Run(engine.NewWordcount(store, "wiki", "counts", 8, 16, 8))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stage 1 wordcount: %d tasks, %d distinct words, S/I=%.2f\n",
		wc.MapTasks, wc.OutputRecords, float64(wc.ShuffleInputRatio()))

	// Stage 2: filter to frequent words (a "scale-up shaped" stage: the
	// input is stage 1's small output).
	topk, err := engine.Run(engine.Config{
		Name:   "topk",
		Store:  store,
		Input:  "counts",
		Output: "frequent",
		Mapper: countLineMapper{},
		// Keep words seen at least 50 times in the corpus.
		Reducer:     engine.TopKReducer{MinCount: 50},
		Reducers:    4,
		MapSlots:    8,
		ReduceSlots: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stage 2 topk:      %v input (stage 1 output), %d frequent words\n",
		topk.InputBytes, topk.OutputRecords)

	// Stage 3: sort the survivors by frequency (zero-padded counts sort
	// lexicographically like numbers).
	sorted, err := engine.Run(engine.Config{
		Name:        "freqsort",
		Store:       store,
		Input:       "frequent",
		Output:      "frequent-sorted",
		Mapper:      byFrequencyMapper{},
		Reducer:     engine.IdentityReducer{},
		Reducers:    2,
		MapSlots:    8,
		ReduceSlots: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stage 3 sort:      %d words ordered by frequency\n", sorted.OutputRecords)

	// Show the head of the final output.
	ds, err := store.Open("frequent-sorted")
	if err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, 200)
	n, _ := ds.ReadAt(buf, 0)
	fmt.Printf("\nfinal output head:\n%s...\n", buf[:n])

	fmt.Println("\nall three stages shared one remote store — no data movement between")
	fmt.Println("stages, even if each stage ran on a different cluster (§IV).")
}

// countLineMapper re-parses wordcount output lines ("word\tcount") into
// (word, count) pairs for the TopK stage.
type countLineMapper struct{}

func (countLineMapper) MapLine(line []byte, emit func(k, v []byte)) error {
	word, count, ok := bytes.Cut(line, []byte{'\t'})
	if !ok {
		return fmt.Errorf("pipeline: malformed count line %q", line)
	}
	emit(word, count)
	return nil
}

// byFrequencyMapper keys each word by its zero-padded count, so the
// engine's sort-merge orders the output by frequency.
type byFrequencyMapper struct{}

func (byFrequencyMapper) MapLine(line []byte, emit func(k, v []byte)) error {
	word, count, ok := bytes.Cut(line, []byte{'\t'})
	if !ok {
		return fmt.Errorf("pipeline: malformed count line %q", line)
	}
	emit(fmt.Appendf(nil, "%010s", count), word)
	return nil
}
