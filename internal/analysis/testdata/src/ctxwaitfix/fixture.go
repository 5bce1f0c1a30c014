// Seeded-violation fixture for the ctxwait analyzer: the duration form
// of Subscription.Next, plus the accepted context forms.
package ctxwaitfix

import (
	"context"
	"time"

	"codsim/internal/cb"
)

func timedNext(s *cb.Subscription) {
	s.Next(time.Second) // want `duration wait Subscription\.Next: use NextContext`
}

// contextForms are the accepted replacements: never flagged.
func contextForms(ctx context.Context, s *cb.Subscription, p *cb.Publication) error {
	if err := s.WaitMatchedContext(ctx); err != nil {
		return err
	}
	if _, err := s.NextContext(ctx); err != nil {
		return err
	}
	return p.WaitChannelsContext(ctx, 1)
}
