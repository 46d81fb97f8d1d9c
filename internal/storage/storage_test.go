package storage

import (
	"errors"
	"math"
	"testing"

	"hybridmr/internal/units"
)

func TestMinBW(t *testing.T) {
	tests := []struct {
		name string
		in   []units.BytesPerSec
		want units.BytesPerSec
	}{
		{"empty", nil, 0},
		{"all non-positive", []units.BytesPerSec{0, -5}, 0},
		{"single", []units.BytesPerSec{units.MBps(100)}, units.MBps(100)},
		{"min of several", []units.BytesPerSec{units.MBps(300), units.MBps(100), units.MBps(200)}, units.MBps(100)},
		{"ignores zero", []units.BytesPerSec{0, units.MBps(50)}, units.MBps(50)},
		{"ignores negative", []units.BytesPerSec{-1, units.MBps(70), units.MBps(60)}, units.MBps(60)},
	}
	for _, tt := range tests {
		if got := MinBW(tt.in...); got != tt.want {
			t.Errorf("%s: MinBW = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestAccessContextValidate(t *testing.T) {
	good := AccessContext{
		ActiveTasks:  10,
		TasksPerNode: 2,
		Nodes:        5,
		NodeNIC:      units.GBps(1.25),
		NodeDiskBW:   units.MBps(100),
		ReadDuty:     0.35,
		WriteDuty:    0.25,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good context invalid: %v", err)
	}
	mut := func(f func(*AccessContext)) AccessContext {
		c := good
		f(&c)
		return c
	}
	bad := []struct {
		name string
		ctx  AccessContext
	}{
		{"no tasks", mut(func(c *AccessContext) { c.ActiveTasks = 0 })},
		{"no per-node", mut(func(c *AccessContext) { c.TasksPerNode = 0 })},
		{"no nodes", mut(func(c *AccessContext) { c.Nodes = 0 })},
		{"zero read duty", mut(func(c *AccessContext) { c.ReadDuty = 0 })},
		{"read duty > 1", mut(func(c *AccessContext) { c.ReadDuty = 1.5 })},
		{"zero write duty", mut(func(c *AccessContext) { c.WriteDuty = 0 })},
		{"write duty > 1", mut(func(c *AccessContext) { c.WriteDuty = 2 })},
	}
	for _, tt := range bad {
		if err := tt.ctx.Validate(); err == nil {
			t.Errorf("%s: Validate succeeded, want error", tt.name)
		}
	}
}

func TestDutyFloors(t *testing.T) {
	c := AccessContext{ActiveTasks: 1, TasksPerNode: 1, Nodes: 1, ReadDuty: 0.1, WriteDuty: 0.1}
	// A single task is never discounted below one full stream.
	if got := c.ReadersPerNode(); got != 1 {
		t.Errorf("ReadersPerNode = %v, want 1", got)
	}
	if got := c.WritersPerNode(); got != 1 {
		t.Errorf("WritersPerNode = %v, want 1", got)
	}
	if got := c.ReadersGlobal(); got != 1 {
		t.Errorf("ReadersGlobal = %v, want 1", got)
	}
	if got := c.WritersGlobal(); got != 1 {
		t.Errorf("WritersGlobal = %v, want 1", got)
	}
	c = AccessContext{ActiveTasks: 100, TasksPerNode: 10, Nodes: 10, ReadDuty: 0.5, WriteDuty: 0.2}
	if got := c.ReadersPerNode(); got != 5 {
		t.Errorf("ReadersPerNode = %v, want 5", got)
	}
	if got := c.WritersGlobal(); got != 20 {
		t.Errorf("WritersGlobal = %v, want 20", got)
	}
}

func TestCheckFit(t *testing.T) {
	const usable = 10 * units.GB
	for _, tc := range []struct {
		in, out units.Bytes
		fits    bool
	}{
		{4 * units.GB, 6 * units.GB, true},
		{0, usable, true},
		{4 * units.GB, 6*units.GB + 1, false},
		{usable + 1, 0, false},
		// Sums past math.MaxInt64 must not wrap into a fit.
		{math.MaxInt64, units.GB, false},
		{units.GB, math.MaxInt64, false},
		{math.MaxInt64, math.MaxInt64, false},
	} {
		err := CheckFit("fs", tc.in, tc.out, usable)
		if fits := err == nil; fits != tc.fits {
			t.Errorf("CheckFit(%d, %d) = %v, want fits=%v", tc.in, tc.out, err, tc.fits)
			continue
		}
		var ce *CapacityError
		if err != nil && (!errors.As(err, &ce) || !errors.Is(err, ErrCapacity) || ce.Need < ce.Usable) {
			t.Errorf("CheckFit(%d, %d) = %#v, want a *CapacityError with Need above Usable", tc.in, tc.out, err)
		}
	}
}
