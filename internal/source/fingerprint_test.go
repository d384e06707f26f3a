package source

import (
	"runtime"
	"testing"
	"time"
)

// A fingerprint lives on its program, so fingerprinting a program does
// not keep it alive: once dropped, it is collected like any other.
func TestFingerprintDoesNotPinPrograms(t *testing.T) {
	collected := make(chan struct{})
	func() {
		p := MustParse(`float A[8]; for (i = 0; i < 8; i++) { A[i] = 0.5; }`)
		if Fingerprint(p) != Fingerprint(MustParse(Print(p))) || PrintedLen(p) != len(Print(p)) {
			t.Fatal("fingerprint does not follow the printed text")
		}
		runtime.SetFinalizer(p, func(*Program) { close(collected) })
	}()
	for i := 0; i < 5; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
	t.Fatal("a fingerprinted program was not collected after 5 GCs")
}
