package stack

import (
	"testing"
	"unsafe"
)

// TestStackLayout pins the Stack's trailing padding: its owner writes
// top, high and cleanFrom on every frame push, and the next Stack in
// memory belongs to another worker. A field added after the padding, or
// the padding dropped, fails here.
func TestStackLayout(t *testing.T) {
	var s Stack
	last := unsafe.Offsetof(s.id) + unsafe.Sizeof(s.id)
	if tail := unsafe.Sizeof(s) - last; tail < padBytes {
		t.Errorf("Stack: %d bytes of trailing padding after its last field, want >= %d", tail, padBytes)
	}
	for name, off := range map[string]uintptr{
		"top": unsafe.Offsetof(s.top), "high": unsafe.Offsetof(s.high),
		"cleanFrom": unsafe.Offsetof(s.cleanFrom),
	} {
		if off >= last {
			t.Errorf("Stack.%s at offset %d lies after the last field's end %d", name, off, last)
		}
	}
}
