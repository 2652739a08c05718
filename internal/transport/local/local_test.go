package local

import (
	"errors"
	"testing"

	"nexus/internal/transport"
)

type collect struct{ frames [][]byte }

func (c *collect) Deliver(f []byte) { c.frames = append(c.frames, append([]byte(nil), f...)) }

func TestLocalDelivery(t *testing.T) {
	sink := &collect{}
	m := New()
	d, err := m.Init(transport.Env{Context: 5, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || d.Method != Name || d.Context != 5 {
		t.Fatalf("descriptor = %v", d)
	}
	c, err := m.Dial(*d)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	if len(sink.frames) != 1 || string(sink.frames[0]) != "hi" {
		t.Errorf("delivered %v", sink.frames)
	}
	if n, err := m.Poll(); n != 0 || err != nil {
		t.Errorf("Poll = %d, %v", n, err)
	}
}

func TestLocalApplicability(t *testing.T) {
	m := New()
	d, _ := m.Init(transport.Env{Context: 5, Sink: &collect{}})
	if !m.Applicable(*d) {
		t.Error("own descriptor not applicable")
	}
	other := *d
	other.Context = 6
	if m.Applicable(other) {
		t.Error("other context applicable")
	}
	wrong := *d
	wrong.Method = "tcp"
	if m.Applicable(wrong) {
		t.Error("other method applicable")
	}
	if _, err := m.Dial(other); !errors.Is(err, transport.ErrNotApplicable) {
		t.Errorf("Dial(other) err = %v", err)
	}
}

func TestLocalUninitialized(t *testing.T) {
	m := New()
	if m.Applicable(transport.Descriptor{Method: Name}) {
		t.Error("uninitialized module applicable")
	}
	if _, err := m.Dial(transport.Descriptor{Method: Name}); !errors.Is(err, transport.ErrNotInitialized) {
		t.Errorf("Dial err = %v", err)
	}
}

func TestLocalClose(t *testing.T) {
	sink := &collect{}
	m := New()
	d, _ := m.Init(transport.Env{Context: 1, Sink: sink})
	c, err := m.Dial(*d)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("x")); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("Send after Close err = %v", err)
	}
	if _, err := m.Dial(*d); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("Dial after Close err = %v", err)
	}
}

func TestRegisteredInDefaultRegistry(t *testing.T) {
	if !transport.Default.Has(Name) {
		t.Fatal("local module not registered")
	}
	m, err := transport.Default.New(Name, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*Module); !ok {
		t.Errorf("New(%q) built a %T", Name, m)
	}
}
