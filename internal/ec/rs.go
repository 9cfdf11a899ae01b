package ec

import (
	"errors"
	"fmt"
)

// ErrInsufficient is returned when fewer than K shards of the object
// survive — the stripe is unrecoverable and the loss must surface loudly.
var ErrInsufficient = errors.New("ec: insufficient shards to reconstruct")

// ErrUnavailable marks an ErrInsufficient read that reads which failed on
// the way — a backend dark, a transient fault — kept short of K shards:
// nothing says the object is damaged, and a later read may succeed.
var ErrUnavailable = errors.New("ec: shards unavailable")

// Codec is a systematic RS(K+M) erasure codec: shards 0..K-1 carry the
// data verbatim (contiguous split), shards K..K+M-1 carry parity. Any K of
// the K+M shards reconstruct the original. Safe for concurrent use.
type Codec struct {
	k, m int
	// parity[i][j] is the coefficient of data shard j in parity shard i.
	// Rows come from an extended-Cauchy matrix: element (i,j) =
	// 1/(x_i ⊕ y_j) with x_i = K+i, y_j = j. Stacked under the K×K
	// identity this gives a matrix whose every K-row submatrix is
	// invertible (expanding identity rows reduces any such determinant to
	// a Cauchy minor, which is nonsingular), i.e. any M losses decode.
	parity [][]byte
}

// NewCodec builds an RS(k+m) codec. k ≥ 1 data shards, m ≥ 0 parity
// shards, k+m ≤ 256 (the field size bounds distinct Cauchy points). k=1
// degenerates to (1+m)-replication up to a constant factor.
func NewCodec(k, m int) (*Codec, error) {
	if k < 1 || m < 0 || k+m > 256 {
		return nil, fmt.Errorf("ec: invalid codec RS(%d+%d): need k ≥ 1, m ≥ 0, k+m ≤ 256", k, m)
	}
	c := &Codec{k: k, m: m, parity: make([][]byte, m)}
	for i := 0; i < m; i++ {
		row := make([]byte, k)
		for j := 0; j < k; j++ {
			row[j] = inv(byte(k+i) ^ byte(j))
		}
		c.parity[i] = row
	}
	return c, nil
}

// K and M report the codec geometry.
func (c *Codec) K() int { return c.k }

// M reports the parity shard count.
func (c *Codec) M() int { return c.m }

// ShardSize returns the per-shard payload size for an object of n bytes:
// ceil(n/k), minimum 1 so zero-length objects still produce shards.
func (c *Codec) ShardSize(n int) int {
	sz := (n + c.k - 1) / c.k
	if sz < 1 {
		sz = 1
	}
	return sz
}

// Split cuts data into k contiguous shards of ShardSize(len(data)) bytes,
// zero-padding the tail. Contiguity (shard j holds bytes [j·s, (j+1)·s))
// is what keeps ranged reads local to one or two shards.
func (c *Codec) Split(data []byte) [][]byte {
	sz := c.ShardSize(len(data))
	shards := make([][]byte, c.k)
	for j := 0; j < c.k; j++ {
		sh := make([]byte, sz)
		lo := j * sz
		if lo < len(data) {
			copy(sh, data[lo:])
		}
		shards[j] = sh
	}
	return shards
}

// Join reassembles the original n-byte object from the k data shards.
func (c *Codec) Join(shards [][]byte, n int) ([]byte, error) {
	if len(shards) < c.k {
		return nil, fmt.Errorf("ec: join needs %d data shards, have %d", c.k, len(shards))
	}
	sz := c.ShardSize(n)
	out := make([]byte, 0, c.k*sz)
	for j := 0; j < c.k; j++ {
		if len(shards[j]) != sz {
			return nil, fmt.Errorf("ec: data shard %d is %d bytes, want %d", j, len(shards[j]), sz)
		}
		out = append(out, shards[j]...)
	}
	return out[:n], nil
}

// Encode splits data and appends the m parity shards, returning k+m
// shards of equal size.
func (c *Codec) Encode(data []byte) [][]byte {
	shards := c.Split(data)
	sz := len(shards[0])
	for i := 0; i < c.m; i++ {
		p := make([]byte, sz)
		for j := 0; j < c.k; j++ {
			mulAdd(p, shards[j], c.parity[i][j])
		}
		shards = append(shards, p)
	}
	return shards
}

// Reconstruct fills every nil entry of shards (length k+m) in place from
// the surviving ones. All present shards must share one length. Fewer
// than k survivors returns ErrInsufficient — losses beyond M are detected
// loudly, never papered over.
func (c *Codec) Reconstruct(shards [][]byte) error {
	if len(shards) != c.k+c.m {
		return fmt.Errorf("ec: reconstruct wants %d shard slots, got %d", c.k+c.m, len(shards))
	}
	present := make([]int, 0, c.k)
	sz := -1
	for i, sh := range shards {
		if sh == nil {
			continue
		}
		if sz < 0 {
			sz = len(sh)
		} else if len(sh) != sz {
			return fmt.Errorf("ec: shard %d is %d bytes, others are %d", i, len(sh), sz)
		}
		if len(present) < c.k {
			present = append(present, i)
		}
	}
	if len(present) < c.k {
		n := 0
		for _, sh := range shards {
			if sh != nil {
				n++
			}
		}
		return fmt.Errorf("%w: %d of %d shards present, need %d", ErrInsufficient, n, c.k+c.m, c.k)
	}

	// Fast path: all data shards survived — parity recomputes directly.
	missingData := false
	for j := 0; j < c.k; j++ {
		if shards[j] == nil {
			missingData = true
			break
		}
	}
	if !missingData {
		c.fillParity(shards, sz)
		return nil
	}

	// Build the K×K generator submatrix of the chosen survivors and invert
	// it: row for data shard j is the unit vector e_j, row for parity
	// shard k+i is the Cauchy row parity[i].
	sub := make([][]byte, c.k)
	for r, idx := range present {
		row := make([]byte, c.k)
		if idx < c.k {
			row[idx] = 1
		} else {
			copy(row, c.parity[idx-c.k])
		}
		sub[r] = row
	}
	if !invertMatrix(sub) {
		// Unreachable for a Cauchy construction; guard anyway.
		return fmt.Errorf("ec: singular decode matrix for survivors %v", present)
	}
	// Decode each missing data shard d as Σ_r sub[d][r] · survivor_r.
	for d := 0; d < c.k; d++ {
		if shards[d] != nil {
			continue
		}
		out := make([]byte, sz)
		for r, idx := range present {
			mulAdd(out, shards[idx], sub[d][r])
		}
		shards[d] = out
	}
	c.fillParity(shards, sz)
	return nil
}

// fillParity recomputes every nil parity shard from the (now complete)
// data shards.
func (c *Codec) fillParity(shards [][]byte, sz int) {
	for i := 0; i < c.m; i++ {
		if shards[c.k+i] != nil {
			continue
		}
		p := make([]byte, sz)
		for j := 0; j < c.k; j++ {
			mulAdd(p, shards[j], c.parity[i][j])
		}
		shards[c.k+i] = p
	}
}

// Verify recomputes parity from the data shards and reports whether every
// shard is consistent (used by tests; the store relies on per-shard CRCs).
func (c *Codec) Verify(shards [][]byte) bool {
	if len(shards) != c.k+c.m {
		return false
	}
	sz := -1
	for _, sh := range shards {
		if sh == nil {
			return false
		}
		if sz < 0 {
			sz = len(sh)
		} else if len(sh) != sz {
			return false
		}
	}
	for i := 0; i < c.m; i++ {
		p := make([]byte, sz)
		for j := 0; j < c.k; j++ {
			mulAdd(p, shards[j], c.parity[i][j])
		}
		for b := range p {
			if p[b] != shards[c.k+i][b] {
				return false
			}
		}
	}
	return true
}
