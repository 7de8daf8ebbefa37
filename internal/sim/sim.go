package sim

import "context"

// Simulator is the single-movie front of the multi-movie Server: it
// carries the paper's §4 validation experiments, which study one popular
// movie at a time. Build with New, execute once with Run.
type Simulator struct {
	srv *Server
}

// New validates cfg and builds a single-movie simulator.
func New(cfg Config) (*Simulator, error) {
	srv, err := NewServer(cfg.server())
	if err != nil {
		return nil, err
	}
	return &Simulator{srv: srv}, nil
}

// Run executes the simulation to the configured horizon and returns the
// collected measurements. It can be called once.
func (s *Simulator) Run() (*Result, error) {
	return s.RunCtx(context.Background())
}

// RunCtx is Run with cancellation checkpoints (see Server.RunCtx).
func (s *Simulator) RunCtx(ctx context.Context) (*Result, error) {
	sr, err := s.srv.RunCtx(ctx)
	if err != nil {
		return nil, err
	}
	return singleResult(sr), nil
}

// EventsFired returns how many kernel events the run executed — the
// cost measure the scale experiment reports alongside wall time.
func (s *Simulator) EventsFired() uint64 { return s.srv.k.State().Fired }

// releaseScratch forwards to the underlying server; see
// Server.releaseScratch for the (strict) lifetime contract.
func (s *Simulator) releaseScratch() { s.srv.releaseScratch() }

// singleResult projects the multi-movie server result onto the
// single-movie Result shape.
func singleResult(sr *ServerResult) *Result {
	mv := sr.Movies[sr.Order[0]]
	return &Result{
		MovieResult:   *mv,
		AvgDedicated:  sr.AvgDedicated,
		PeakDedicated: sr.PeakDedicated,
		AvgViewers:    sr.AvgViewers,
		PeakViewers:   sr.PeakViewers,
		BufferPeak:    sr.BufferPeak,
		Faults:        sr.Faults,
	}
}
