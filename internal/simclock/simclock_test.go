package simclock

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestChargeCPUAndBreakdown(t *testing.T) {
	a := NewAccount()
	a.ChargeCPU(PhaseChunking, 30*time.Millisecond)
	a.ChargeCPU(PhaseFingerprint, 60*time.Millisecond)
	a.ChargeCPU(PhaseIndexQuery, 10*time.Millisecond)
	a.ChargeCPU(PhaseOther, -5) // negative charges are ignored

	if got := a.CPUTime(); got != 100*time.Millisecond {
		t.Fatalf("CPUTime = %v", got)
	}
	br := a.CPUBreakdown()
	if br[PhaseChunking] != 0.3 || br[PhaseFingerprint] != 0.6 || br[PhaseIndexQuery] != 0.1 {
		t.Fatalf("breakdown = %v", br)
	}
	if _, ok := br[PhaseOther]; ok {
		t.Fatal("zero phase included in breakdown")
	}
	if a.CPUPhase(PhaseChunking) != 30*time.Millisecond {
		t.Fatal("CPUPhase wrong")
	}
}

func TestChargeCPUBytes(t *testing.T) {
	a := NewAccount()
	a.ChargeCPUBytes(PhaseChunking, 1000, 2.5) // 2500 ns
	if got := a.CPUTime(); got != 2500*time.Nanosecond {
		t.Fatalf("CPUTime = %v", got)
	}
	a.ChargeCPUBytes(PhaseChunking, -5, 2.5)
	a.ChargeCPUBytes(PhaseChunking, 5, 0)
	if got := a.CPUTime(); got != 2500*time.Nanosecond {
		t.Fatal("degenerate charges changed the account")
	}
}

func TestIOModel(t *testing.T) {
	c := Costs{
		OSSRequestLatency: 10 * time.Millisecond,
		OSSReadBandwidth:  100 << 20,
		OSSWriteBandwidth: 200 << 20,
	}
	a := NewAccount()
	a.ChargeRead(c, 100<<20)  // 10ms + 1s
	a.ChargeWrite(c, 200<<20) // 10ms + 1s
	io := a.IO()
	if io.Reads != 1 || io.Writes != 1 || io.ReadBytes != 100<<20 || io.WriteBytes != 200<<20 {
		t.Fatalf("io counters: %+v", io)
	}
	wantRead := 10*time.Millisecond + time.Second
	if d := io.ReadTime - wantRead; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("ReadTime = %v, want %v", io.ReadTime, wantRead)
	}
}

func TestElapsedModels(t *testing.T) {
	c := Costs{OSSRequestLatency: 0, OSSReadBandwidth: 1 << 30, OSSWriteBandwidth: 1 << 30}
	a := NewAccount()
	a.ChargeCPU(PhaseOther, 100*time.Millisecond)
	a.ChargeRead(c, 6<<30) // 6s of read time
	if got := a.ElapsedSequential(); got < 6*time.Second {
		t.Fatalf("sequential = %v", got)
	}
	// 6 channels: io time 1s > cpu 0.1s → io-bound at 1s.
	if got := a.ElapsedOverlapped(6); got != time.Second {
		t.Fatalf("overlapped(6) = %v", got)
	}
	// 100 channels: io 60ms < cpu → cpu-bound.
	if got := a.ElapsedOverlapped(100); got != 100*time.Millisecond {
		t.Fatalf("overlapped(100) = %v", got)
	}
	// channels < 1 treated as 1.
	if a.ElapsedOverlapped(0) != a.ElapsedOverlapped(1) {
		t.Fatal("channels<1 not clamped")
	}
}

func TestReset(t *testing.T) {
	a := NewAccount()
	a.ChargeCPU(PhaseChunking, time.Millisecond)
	a.ChargeRead(DefaultCosts(), 1000)
	if a.CPUTime() != time.Millisecond || a.IO().Reads != 1 {
		t.Fatalf("charged: cpu=%v io=%+v", a.CPUTime(), a.IO())
	}
	a.Reset()
	if a.CPUTime() != 0 || a.IO().Reads != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestThroughputMBps(t *testing.T) {
	if got := ThroughputMBps(100<<20, time.Second); got != 100 {
		t.Fatalf("ThroughputMBps = %f", got)
	}
	if ThroughputMBps(1, 0) != 0 {
		t.Fatal("zero elapsed should yield 0")
	}
}

func TestConcurrentCharging(t *testing.T) {
	a := NewAccount()
	c := DefaultCosts()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				a.ChargeCPU(PhaseChunking, time.Microsecond)
				a.ChargeRead(c, 100)
			}
		}()
	}
	wg.Wait()
	if a.CPUTime() != 8*1000*time.Microsecond {
		t.Fatalf("CPUTime = %v", a.CPUTime())
	}
	if a.IO().Reads != 8000 {
		t.Fatalf("Reads = %d", a.IO().Reads)
	}
}

func TestString(t *testing.T) {
	a := NewAccount()
	a.ChargeCPU(PhaseChunking, time.Millisecond)
	a.ChargeWrite(DefaultCosts(), 123)
	s := a.String()
	if !strings.Contains(s, "chunking") || !strings.Contains(s, "123B") {
		t.Fatalf("String() = %q", s)
	}
}

func TestDefaultCostsCalibration(t *testing.T) {
	c := DefaultCosts()
	// The documented Fig 2 proportions: Rabin chunking dominates its CPU
	// profile, FastCDC is cheaper than SHA-1-equivalent per-chunk work.
	if c.RabinPerByte <= c.FastCDCPerByte {
		t.Fatal("rabin must cost more than fastcdc")
	}
	if c.SHA256PerByte <= c.SHA1PerByte {
		t.Fatal("sha256 must cost more than sha1")
	}
	if c.OSSRequestLatency <= 0 || c.OSSReadBandwidth <= 0 {
		t.Fatal("OSS model must be positive")
	}
}
