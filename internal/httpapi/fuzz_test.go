package httpapi

import (
	"encoding/json"
	"strings"
	"testing"

	"vodalloc/internal/faults"
)

// FuzzSimulateDecode exercises the request-decoding and validation path
// of /v1/simulate without running the simulator: arbitrary bodies must
// either be rejected with an error or produce a config the validators
// accept — never a panic.
func FuzzSimulateDecode(f *testing.F) {
	for _, seed := range []string{
		`{"config":{"l":120,"b":60,"n":30},"profile":{},"lambda":0.5}`,
		`{"config":{"l":120,"b":60,"n":30},"lambda":0.5,"faults":"fail@300:d0,repair@600:d0"}`,
		`{"config":{"l":120,"b":60,"n":30},"totalStreams":60,"faults":"rand:7:400:100:6"}`,
		`{"config":{"l":-1,"b":1e308,"n":-5}}`,
		`{"profile":{"dur":"gamma:2:4","think":"exp:15","pff":0.2,"prw":0.2,"ppau":0.6}}`,
		`{"profile":{"dur":"::::"}}`,
		`{"faults":"glitch@-1:0"}`,
		`{`, `[]`, `null`, `0`, `""`, `{"unknown":true}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var req SimulateRequest
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return // rejected bodies are fine; panics are not
		}
		if _, err := req.Config.toConfig(); err != nil {
			return
		}
		if _, err := req.Profile.toProfile(); err != nil {
			return
		}
		if _, err := faults.ParseSchedule(req.Faults, 1000); err != nil {
			return
		}
	})
}
