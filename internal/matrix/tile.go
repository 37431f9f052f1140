package matrix

import "fmt"

// TileMatrix stores an n×n matrix as a grid of NB×NB tiles, each tile
// contiguous in memory in column-major order. This is the PLASMA "tile
// layout": it removes the strided accesses (and the cache/TLB misses they
// cause) that the standard LAPACK layout suffers from when a kernel works on
// a square block. Edge tiles (last row/column of the grid) may be smaller
// than NB when N is not a multiple of NB.
type TileMatrix struct {
	N  int // matrix order
	NB int // tile size
	NT int // number of tile rows/cols = ceil(N/NB)
	// tiles[i + j*NT] holds tile (i, j) as a column-major TileRows(i) ×
	// TileCols(j) block.
	tiles [][]float64
}

// NewTileMatrix allocates a zeroed n×n tile matrix with tile size nb.
func NewTileMatrix(n, nb int) *TileMatrix {
	if n < 0 || nb <= 0 {
		panic("matrix: bad tile matrix dimensions")
	}
	nt := (n + nb - 1) / nb
	t := &TileMatrix{N: n, NB: nb, NT: nt, tiles: make([][]float64, nt*nt)}
	for j := 0; j < nt; j++ {
		for i := 0; i < nt; i++ {
			t.tiles[i+j*nt] = make([]float64, t.TileRows(i)*t.TileCols(j))
		}
	}
	return t
}

// WorkspaceBytes reports the retained tile storage (for workspace-budget
// accounting; see work.WorkspaceSized).
func (t *TileMatrix) WorkspaceBytes() int64 {
	var b int64
	for _, tile := range t.tiles {
		b += int64(cap(tile)) * 8
	}
	return b
}

// TileRows returns the row count of tiles in tile-row i.
func (t *TileMatrix) TileRows(i int) int {
	if i < 0 || i >= t.NT {
		panic(fmt.Sprintf("matrix: tile row %d out of range %d", i, t.NT))
	}
	if i == t.NT-1 {
		return t.N - i*t.NB
	}
	return t.NB
}

// TileCols returns the column count of tiles in tile-column j.
func (t *TileMatrix) TileCols(j int) int { return t.TileRows(j) }

// Tile returns the contiguous storage of tile (i, j); its leading dimension
// is TileRows(i).
func (t *TileMatrix) Tile(i, j int) []float64 {
	if i < 0 || i >= t.NT || j < 0 || j >= t.NT {
		panic(fmt.Sprintf("matrix: tile (%d,%d) out of range %d", i, j, t.NT))
	}
	return t.tiles[i+j*t.NT]
}

// At returns matrix element (i, j) by locating its tile.
func (t *TileMatrix) At(i, j int) float64 {
	ti, tj := i/t.NB, j/t.NB
	return t.Tile(ti, tj)[(i-ti*t.NB)+(j-tj*t.NB)*t.TileRows(ti)]
}

// Set assigns matrix element (i, j).
func (t *TileMatrix) Set(i, j int, v float64) {
	ti, tj := i/t.NB, j/t.NB
	t.Tile(ti, tj)[(i-ti*t.NB)+(j-tj*t.NB)*t.TileRows(ti)] = v
}

// FromLapack fills the tile matrix from a column-major dense matrix. This is
// one direction of the Data Translation Layer (DTL).
func (t *TileMatrix) FromLapack(d *Dense) {
	if d.Rows != t.N || d.Cols != t.N {
		panic("matrix: DTL shape mismatch")
	}
	for tj := 0; tj < t.NT; tj++ {
		jc := t.TileCols(tj)
		for ti := 0; ti < t.NT; ti++ {
			ir := t.TileRows(ti)
			tile := t.Tile(ti, tj)
			for j := 0; j < jc; j++ {
				src := d.Data[(ti*t.NB)+(tj*t.NB+j)*d.Stride:]
				copy(tile[j*ir:j*ir+ir], src[:ir])
			}
		}
	}
}

// TileID returns a stable integer identifier for tile (i, j), used as the
// resource key for dependence tracking in the task scheduler.
func (t *TileMatrix) TileID(i, j int) int { return i + j*t.NT }
