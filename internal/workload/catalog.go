package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"vodalloc/internal/dist"
	"vodalloc/internal/vcr"
)

// CatalogSpec is the JSON-serializable description of a movie catalog,
// for driving the sizing and simulation tools from configuration files.
type CatalogSpec struct {
	Movies []MovieSpec `json:"movies"`
}

// ProfileSpec is the JSON form of a VCR profile. Distribution fields
// use the compact dist.Parse syntax ("gamma:2:4", "exp:15", …).
type ProfileSpec struct {
	// PFF/PRW/PPAU default to the §4 mix (0.2/0.2/0.6) when all zero.
	PFF  float64 `json:"pff,omitempty"`
	PRW  float64 `json:"prw,omitempty"`
	PPAU float64 `json:"ppau,omitempty"`
	// Dur is the shared duration spec; DurFF/DurRW/DurPAU override it
	// per operation.
	Dur    string `json:"dur,omitempty"`
	DurFF  string `json:"durFF,omitempty"`
	DurRW  string `json:"durRW,omitempty"`
	DurPAU string `json:"durPAU,omitempty"`
	// Think is the think-time spec (default "exp:15").
	Think string `json:"think,omitempty"`
}

// Profile parses the spec, with durDefault standing in for an empty
// Dur; an operation left without any duration spec stays nil. A parse
// error names the field. The profile is not validated.
func (s ProfileSpec) Profile(durDefault string) (vcr.Profile, error) {
	dur := s.Dur
	if dur == "" {
		dur = durDefault
	}
	p := vcr.Profile{PFF: s.PFF, PRW: s.PRW, PPAU: s.PPAU}
	if p.PFF == 0 && p.PRW == 0 && p.PPAU == 0 {
		p.PFF, p.PRW, p.PPAU = 0.2, 0.2, 0.6
	}
	for _, f := range []struct {
		name, spec, fallback string
		dst                  *dist.Distribution
	}{
		{"durFF", s.DurFF, dur, &p.DurFF},
		{"durRW", s.DurRW, dur, &p.DurRW},
		{"durPAU", s.DurPAU, dur, &p.DurPAU},
		{"think", s.Think, "exp:15", &p.Think},
	} {
		spec := f.spec
		if spec == "" {
			spec = f.fallback
		}
		if spec == "" {
			continue
		}
		d, err := dist.Parse(spec)
		if err != nil {
			return vcr.Profile{}, fmt.Errorf("%s: %w", f.name, err)
		}
		*f.dst = d
	}
	return p, nil
}

// MovieSpec is the JSON form of one movie; its profile fields are
// those of ProfileSpec.
type MovieSpec struct {
	Name       string  `json:"name"`
	Length     float64 `json:"length"`
	Wait       float64 `json:"wait"`
	TargetHit  float64 `json:"targetHit"`
	Popularity float64 `json:"popularity,omitempty"`

	PFF    float64 `json:"pff,omitempty"`
	PRW    float64 `json:"prw,omitempty"`
	PPAU   float64 `json:"ppau,omitempty"`
	Dur    string  `json:"dur,omitempty"`
	DurFF  string  `json:"durFF,omitempty"`
	DurRW  string  `json:"durRW,omitempty"`
	DurPAU string  `json:"durPAU,omitempty"`
	Think  string  `json:"think,omitempty"`
}

// ToMovie materializes the spec.
func (s MovieSpec) ToMovie() (Movie, error) {
	profile, err := ProfileSpec{
		PFF: s.PFF, PRW: s.PRW, PPAU: s.PPAU,
		Dur: s.Dur, DurFF: s.DurFF, DurRW: s.DurRW, DurPAU: s.DurPAU,
		Think: s.Think,
	}.Profile("")
	if err != nil {
		return Movie{}, fmt.Errorf("movie %q %w", s.Name, err)
	}
	pop := s.Popularity
	if pop == 0 {
		pop = 1
	}
	m := Movie{
		Name: s.Name, Length: s.Length, Wait: s.Wait, TargetHit: s.TargetHit,
		Popularity: pop,
		Profile:    profile,
	}
	if err := m.Validate(); err != nil {
		return Movie{}, err
	}
	if err := m.Profile.Validate(); err != nil {
		return Movie{}, fmt.Errorf("movie %q: %w", s.Name, err)
	}
	return m, nil
}

// ReadCatalog decodes a catalog from JSON.
func ReadCatalog(r io.Reader) ([]Movie, error) {
	var spec CatalogSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadParam, err)
	}
	if len(spec.Movies) == 0 {
		return nil, fmt.Errorf("%w: catalog has no movies", ErrBadParam)
	}
	movies := make([]Movie, 0, len(spec.Movies))
	for _, ms := range spec.Movies {
		m, err := ms.ToMovie()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadParam, err)
		}
		movies = append(movies, m)
	}
	return movies, nil
}

// LoadCatalog reads a catalog from a JSON file.
func LoadCatalog(path string) ([]Movie, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadParam, err)
	}
	defer f.Close()
	return ReadCatalog(f)
}
