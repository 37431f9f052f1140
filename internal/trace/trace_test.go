package trace

import (
	"sync"
	"testing"
	"time"
)

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.AddFlops(KGemm, 100)
	c.AddPhase(PhaseEigT, time.Second)
	ran := false
	c.Phase(PhaseStage1, func() { ran = true })
	if !ran {
		t.Fatal("nil collector did not run phase body")
	}
	if c.Flops(KGemm) != 0 || c.TotalFlops() != 0 || c.PhaseTime(PhaseEigT) != 0 {
		t.Fatal("nil collector returned nonzero counts")
	}
}

func TestFlopAccumulation(t *testing.T) {
	c := New()
	c.AddFlops(KGemm, 10)
	c.AddFlops(KGemm, 5)
	c.AddFlops(KSymv, 3)
	if c.Flops(KGemm) != 15 {
		t.Fatalf("gemm flops = %d, want 15", c.Flops(KGemm))
	}
	if c.TotalFlops() != 18 {
		t.Fatalf("total = %d, want 18", c.TotalFlops())
	}
}

func TestConcurrentAdds(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.AddFlops(KGemv, 1)
			}
		}()
	}
	wg.Wait()
	if c.Flops(KGemv) != 16000 {
		t.Fatalf("concurrent adds lost updates: %d", c.Flops(KGemv))
	}
}

func TestPhaseTiming(t *testing.T) {
	c := New()
	c.Phase(PhaseEigT, func() { time.Sleep(10 * time.Millisecond) })
	c.Phase(PhaseEigT, func() { time.Sleep(10 * time.Millisecond) })
	if got := c.PhaseTime(PhaseEigT); got < 15*time.Millisecond {
		t.Fatalf("phase time %v, want ≥ 15ms", got)
	}
	ph := c.Phases()
	if len(ph) != 1 {
		t.Fatalf("phases map has %d entries", len(ph))
	}
}

// TestAttributedFlops pins the fused-phase side channel: attribution is
// kept separately per phase, does not leak into the kernel totals, survives
// concurrent adds, works on nil and zero-value collectors, and is cleared
// by Reset.
func TestAttributedFlops(t *testing.T) {
	var nilC *Collector
	nilC.AttributeFlops(PhaseUpdateQ2, 10)
	if nilC.AttributedFlops(PhaseUpdateQ2) != 0 {
		t.Fatal("nil collector returned attribution")
	}

	var zero Collector // zero value, maps lazily initialized
	zero.AttributeFlops(PhaseUpdateQ1, 7)
	if zero.AttributedFlops(PhaseUpdateQ1) != 7 {
		t.Fatal("zero-value collector lost attribution")
	}

	c := New()
	c.AddFlops(KGemm, 100)
	c.AttributeFlops(PhaseUpdateQ2, 40)
	c.AttributeFlops(PhaseUpdateQ2, 2)
	c.AttributeFlops(PhaseUpdateQ1, 5)
	if got := c.AttributedFlops(PhaseUpdateQ2); got != 42 {
		t.Fatalf("Q2 attribution = %d, want 42", got)
	}
	if got := c.AttributedFlops(PhaseUpdateQ1); got != 5 {
		t.Fatalf("Q1 attribution = %d, want 5", got)
	}
	if c.AttributedFlops(PhaseStage1) != 0 {
		t.Fatal("unattributed phase nonzero")
	}
	if c.TotalFlops() != 100 {
		t.Fatalf("attribution leaked into kernel totals: %d", c.TotalFlops())
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.AttributeFlops(PhaseUpdateQ2, 1)
			}
		}()
	}
	wg.Wait()
	if got := c.AttributedFlops(PhaseUpdateQ2); got != 42+8000 {
		t.Fatalf("concurrent attribution lost updates: %d", got)
	}

	c.Reset()
	if c.AttributedFlops(PhaseUpdateQ2) != 0 {
		t.Fatal("reset did not clear attribution")
	}
}

func TestReportAndReset(t *testing.T) {
	c := New()
	c.AddFlops(KGemm, 1000)
	c.AddFlops(KSymv, 1)
	c.Reset()
	if c.TotalFlops() != 0 {
		t.Fatal("reset did not clear flops")
	}
}

func TestMerge(t *testing.T) {
	dst, src := New(), New()
	dst.AddFlops(KGemm, 10)
	src.AddFlops(KGemm, 5)
	src.AddFlops(KLarfb, 7)
	src.AttributeFlops(PhaseStage1, 12)
	src.AddPhase(PhaseStage1, time.Second)
	dst.Merge(src)
	if dst.Flops(KGemm) != 15 || dst.Flops(KLarfb) != 7 {
		t.Fatalf("merged flops: gemm=%d geqrt=%d", dst.Flops(KGemm), dst.Flops(KLarfb))
	}
	if dst.AttributedFlops(PhaseStage1) != 12 {
		t.Fatal("attributed flops not merged")
	}
	if dst.PhaseTime(PhaseStage1) != time.Second {
		t.Fatal("phase time not merged")
	}
	// src is untouched and still usable.
	if src.Flops(KGemm) != 5 {
		t.Fatal("Merge mutated the source")
	}
	dst.Merge(nil) // no-op
	dst.Merge(dst) // self-merge guard
	if dst.Flops(KGemm) != 15 {
		t.Fatal("self/nil merge changed totals")
	}
	var nilC *Collector
	nilC.Merge(src) // nil receiver is a no-op
}
