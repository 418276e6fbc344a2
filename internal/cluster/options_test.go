package cluster

import (
	"reflect"
	"testing"

	"pilfill/internal/core"
	"pilfill/internal/scanline"
	"pilfill/internal/server"
)

// TestEveryOptionReachesEngineConfig guards the options-to-engine mapping
// against drift: with every SubmitOptions field set to a non-zero value,
// each engine-relevant field must reach both the core.Config a region
// worker solves under (SessionOptions, then EngineConfig) and the one
// RunChipLocal's reference engine uses. Fields that are deliberately not
// engine configuration sit on a named skip list; a new field fails the test
// until it is classified one way or the other.
func TestEveryOptionReachesEngineConfig(t *testing.T) {
	var o server.SubmitOptions
	v := reflect.ValueOf(&o).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(2) // also a valid SlackDef
		case reflect.Float64:
			f.SetFloat(0.25)
		default:
			t.Fatalf("SubmitOptions.%s: kind %v has no test value", v.Type().Field(i).Name, f.Kind())
		}
	}
	notEngine := map[string]string{
		"Window":       "dissection window, applied by the session or the region spec",
		"R":            "dissection factor, applied by the session or the region spec",
		"CollectTrace": "the caller owns the tracer and sets Config.Trace itself",
	}
	reaches := map[string]func(c core.Config) bool{
		"Weighted":     func(c core.Config) bool { return c.Weighted },
		"SlackDef":     func(c core.Config) bool { return c.Def == scanline.DefII },
		"Seed":         func(c core.Config) bool { return c.Seed == 2 },
		"NetCapPS":     func(c core.Config) bool { return c.NetCap == o.NetCapPS*1e-12 },
		"Workers":      func(c core.Config) bool { return c.Workers == 2 },
		"Grounded":     func(c core.Config) bool { return c.Grounded },
		"ILPNodeLimit": func(c core.Config) bool { return c.ILPOpts.MaxNodes == 2 },
		"NoSolveMemo":  func(c core.Config) bool { return c.NoSolveMemo },
		"DualGapTol":   func(c core.Config) bool { return c.DualGapTol == 0.25 },
	}

	opts, err := o.SessionOptions()
	if err != nil {
		t.Fatal(err)
	}
	local, err := engineConfig(&ChipJob{Options: o})
	if err != nil {
		t.Fatal(err)
	}
	configs := map[string]core.Config{"region worker": opts.EngineConfig(), "RunChipLocal": local}
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if _, skip := notEngine[name]; skip {
			continue
		}
		check, ok := reaches[name]
		if !ok {
			t.Errorf("SubmitOptions.%s is unclassified: add it to the engine checks or the skip list", name)
			continue
		}
		for path, cfg := range configs {
			if !check(cfg) {
				t.Errorf("%s: SubmitOptions.%s does not reach core.Config", path, name)
			}
		}
	}
}
