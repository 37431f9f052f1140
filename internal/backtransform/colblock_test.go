package backtransform

import "testing"

func TestDefaultColBlock(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		cols, nb, workers, cb int
	}{
		{"sequential default", 1000, 32, 1, 64},
		{"sequential wide nb", 1000, 100, 1, 100},
		{"clamped to cols", 10, 32, 1, 10},
		{"zero cols", 0, 32, 1, 64},
		{"parallel splits work", 256, 32, 4, 32}, // 256/(4·4) = 16 → floor 32
		{"parallel keeps floor", 128, 16, 8, 32},
		{"parallel large stays 64", 4096, 32, 4, 64},
		{"nb dominates in parallel", 4096, 96, 2, 96}, // 4096/8=512 ≥ 96
		{"tiny problem", 3, 8, 4, 3},
	} {
		if got := defaultColBlock(tc.cols, tc.nb, tc.workers); got != tc.cb {
			t.Errorf("%s: defaultColBlock(%d,%d,%d)=%d, want %d",
				tc.name, tc.cols, tc.nb, tc.workers, got, tc.cb)
		}
	}
}

func TestDefaultColBlockInvariants(t *testing.T) {
	for cols := 1; cols <= 200; cols += 13 {
		for _, nb := range []int{1, 8, 40, 150} {
			for workers := 1; workers <= 9; workers++ {
				cb := defaultColBlock(cols, nb, workers)
				if cb < 1 || cb > cols {
					t.Fatalf("defaultColBlock(%d,%d,%d)=%d out of [1,%d]", cols, nb, workers, cb, cols)
				}
			}
		}
	}
}
