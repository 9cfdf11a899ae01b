package meter

import (
	"crypto/sha1"
	"time"
)

// referenceBytes is the size of one reference pass: small enough to run
// before every phase, large enough to miss the CPU caches like the
// system's own buffers do.
const referenceBytes = 1 << 20

var (
	referenceSrc  = make([]byte, referenceBytes)
	referenceSink byte
)

// Reference times one pass of a fixed piece of standard-library work made
// of what the system itself mostly does — hash a buffer, allocate a fresh
// one, copy into it. It shares no code with the repository, so nothing a
// commit changes moves it; what moves it is the host. The harness runs it
// alongside the timed phases to tell a slower commit from a slower hour.
func Reference() time.Duration {
	t0 := time.Now()
	sum := sha1.Sum(referenceSrc)
	dst := make([]byte, referenceBytes)
	copy(dst, referenceSrc)
	referenceSink ^= sum[0] ^ dst[referenceBytes-1]
	return time.Since(t0)
}
