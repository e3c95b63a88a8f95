package governor

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Knob is one operator-settable field of Limits: how the repl's `limits`
// verb and the CLI flags name it, parse it and print it. Knobs is the only
// place those names are written.
type Knob struct {
	// Key names the knob in `limits key=value`; Arg is the value's
	// placeholder in usage lines (D, N, on|off).
	Key, Arg string
	// Flag is the CLI flag name, empty where no binary takes the knob as a
	// flag; Help is the flag's usage text.
	Flag, Help string
	// Parse sets the knob's field of l from text; its error is the full
	// message shown to the operator.
	Parse func(l *Limits, text string) error
	// Format renders the knob's field of l so that Parse reads it back.
	Format func(l Limits) string
}

// Knobs lists the settable knobs in the order `limits` echoes them.
var Knobs = []Knob{
	durationKnob("timeout", func(l *Limits) *time.Duration { return &l.Timeout }).
		flag("timeout", "per-query wall-clock budget (0 = none)"),
	countKnob("tuples", func(l *Limits) *int64 { return &l.MaxTuples }).
		flag("max-tuples", "per-query scanned-tuple budget (0 = none)"),
	countKnob("rows", func(l *Limits) *int64 { return &l.MaxRows }).
		flag("max-rows", "per-query materialized-row budget (0 = none)"),
	countKnob("plans", func(l *Limits) *int64 { return &l.MaxPlans }).
		flag("max-plans", "per-query enumerated-plan budget (0 = none)"),
	countKnob("memory", func(l *Limits) *int64 { return &l.MaxMemory }).
		flag("max-memory", "per-query working-memory byte budget (0 = none); hash joins over it partition in memory"),
	countKnob("max-concurrent", func(l *Limits) *int { return &l.MaxConcurrent }).
		flag("max-concurrent", "admission control: max concurrently executing queries (0 = unlimited)"),
	countKnob("max-queue", func(l *Limits) *int { return &l.MaxQueue }),
	durationKnob("queue-timeout", func(l *Limits) *time.Duration { return &l.QueueTimeout }).
		flag("queue-timeout", "admission control: max time a query waits for a slot (0 = forever)"),
	countKnob("max-replica-lag", func(l *Limits) *int { return &l.MaxReplicaLag }),
	switchKnob("cache", func(l *Limits) *bool { return &l.DisableCache }),
	countKnob("plan-cache-size", func(l *Limits) *int { return &l.PlanCacheSize }),
}

// flag names the CLI flag some binary binds the knob to.
func (k Knob) flag(name, help string) Knob {
	k.Flag, k.Help = name, help
	return k
}

// FindKnob returns the knob with the given key.
func FindKnob(key string) (Knob, bool) {
	for _, k := range Knobs {
		if k.Key == key {
			return k, true
		}
	}
	return Knob{}, false
}

func durationKnob(key string, field func(*Limits) *time.Duration) Knob {
	return Knob{Key: key, Arg: "D",
		Parse: func(l *Limits, text string) error {
			d, err := time.ParseDuration(text)
			if err != nil {
				return fmt.Errorf("bad %s %q: %v", key, text, err)
			}
			if d < 0 {
				return fmt.Errorf("%s must not be negative (got %s)", key, d)
			}
			*field(l) = d
			return nil
		},
		Format: func(l Limits) string { return field(&l).String() },
	}
}

func countKnob[T int | int64](key string, field func(*Limits) *T) Knob {
	return Knob{Key: key, Arg: "N",
		Parse: func(l *Limits, text string) error {
			n, err := strconv.ParseInt(text, 10, 64)
			if err != nil || int64(T(n)) != n {
				return fmt.Errorf("bad %s limit %q", key, text)
			}
			if n < 0 {
				return fmt.Errorf("%s must not be negative (got %d); use \"limits off\" to clear", key, n)
			}
			*field(l) = T(n)
			return nil
		},
		Format: func(l Limits) string { return strconv.FormatInt(int64(*field(&l)), 10) },
	}
}

// switchKnob is an on/off toggle: the key reads on/off, the field stores
// the opposite (the zero Limits leaves everything on).
func switchKnob(key string, disabled func(*Limits) *bool) Knob {
	return Knob{Key: key, Arg: "on|off",
		Parse: func(l *Limits, text string) error {
			switch strings.ToLower(text) {
			case "on":
				*disabled(l) = false
			case "off":
				*disabled(l) = true
			default:
				return fmt.Errorf("bad %s %q (want on or off)", key, text)
			}
			return nil
		},
		Format: func(l Limits) string {
			if *disabled(&l) {
				return "off"
			}
			return "on"
		},
	}
}

// BindFlags registers the knobs named by keys on fs under their flag
// names. Each flag's default is the knob's current value in l, and a
// parsed flag writes through to l.
func BindFlags(fs *flag.FlagSet, l *Limits, keys ...string) {
	for _, key := range keys {
		k, ok := FindKnob(key)
		if !ok || k.Flag == "" {
			panic("governor: no flag for limits knob " + key)
		}
		fs.Var(knobFlag{k, l}, k.Flag, k.Help)
	}
}

// knobFlag adapts one knob of one Limits to flag.Value.
type knobFlag struct {
	k Knob
	l *Limits
}

func (f knobFlag) String() string {
	if f.l == nil { // the zero value the flag package probes for defaults
		return ""
	}
	return f.k.Format(*f.l)
}

func (f knobFlag) Set(text string) error { return f.k.Parse(f.l, text) }
