// Variant fixture: rule 2 — ctx-holding callers in the serving/app layers
// must call the ctx-taking *Context/*With sibling of a context-free
// function, as the façade pairs Explain with ExplainWith and fkdual pairs
// DecideA with DecideAContext. A method pairs with a sibling on its own
// receiver.
package fixture

import "context"

type Options struct{}

func DecideA() error                                      { return nil }
func DecideAContext(ctx context.Context) error            { return ctx.Err() }
func Explain() error                                      { return nil }
func ExplainWith(ctx context.Context, opts Options) error { return ctx.Err() }
func IsAcyclic() bool                                     { return true }

type Session struct{}

func (s *Session) Decide() error                                      { return nil }
func (s *Session) DecideWith(ctx context.Context, opts Options) error { return ctx.Err() }

func handler(ctx context.Context, s *Session) error {
	if err := DecideA(); err != nil { // want `call DecideAContext instead of DecideA`
		return err
	}
	if err := Explain(); err != nil { // want `call ExplainWith instead of Explain`
		return err
	}
	if err := s.Decide(); err != nil { // want `call DecideWith instead of Decide`
		return err
	}
	if !IsAcyclic() { // no sibling exists: clean
		return nil
	}
	return ExplainWith(ctx, Options{})
}

func contextFreeCaller(s *Session) error {
	// No ctx in scope: the context-free form is the right call.
	if err := Explain(); err != nil {
		return err
	}
	return s.Decide()
}

func suppressedVariant(ctx context.Context) error {
	return DecideA() //dual:allow(ctxpoll: fire-and-forget cleanup, must not be cancelled)
}
