package sim

import (
	"context"
	"testing"
	"time"

	"codsim/internal/cb"
	"codsim/internal/fom"
	"codsim/internal/transport"
)

func fastCB() cb.Config {
	return cb.Config{
		BroadcastInterval: 5 * time.Millisecond,
		RefreshInterval:   40 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  200 * time.Millisecond,
	}
}

// TestClusterBootAndTraffic brings the whole 8-computer federation up,
// lets it run briefly, and checks every module exchanged traffic over the
// Communication Backbone.
func TestClusterBootAndTraffic(t *testing.T) {
	c, err := New(Config{
		CB:           fastCB(),
		TimeScale:    8,
		Width:        160,
		Height:       120,
		Polygons:     800,
		RenderFrames: 12,
		Autopilot:    true,
		AutoStart:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// Give the federation a moment to exchange traffic (scaled time).
	deadline := time.Now().Add(15 * time.Second)
	for {
		if c.ScenarioState().Phase >= fom.PhaseDriving {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scenario never started")
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Displays must complete their frames through the barrier.
	waitDeadline := time.Now().Add(20 * time.Second)
	for c.server.Swaps() < 12 {
		if time.Now().After(waitDeadline) {
			t.Fatalf("server released only %d swaps", c.server.Swaps())
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	sum := c.Summary()
	if len(sum.DisplayFPS) != 3 {
		t.Fatalf("display fps = %v", sum.DisplayFPS)
	}
	for i, fps := range sum.DisplayFPS {
		if fps <= 0 {
			t.Errorf("display %d fps = %v", i+1, fps)
		}
	}
	// The dynamics node must have published to multiple subscribers.
	stats := c.Backbone(NodeSim).Stats()
	if stats.UpdatesSent.Value() == 0 {
		t.Error("sim-pc published nothing")
	}
	if got := c.Backbone(NodeMotion).Stats().ReflectsDelivered.Value(); got == 0 {
		t.Error("motion-pc received no cues")
	}
	if got := c.Backbone(NodeInstructor).Stats().ReflectsDelivered.Value(); got == 0 {
		t.Error("instructor-pc received nothing")
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterExamCompletes runs the full licensing exam over the real
// federation at high time scale.
func TestClusterExamCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("full exam run")
	}
	// TimeScale 15 keeps the LP tick demand (~900 ticks/s aggregate)
	// satisfiable even when other test packages share the CPUs.
	c, err := New(Config{
		CB:        fastCB(),
		TimeScale: 15,
		Width:     96,
		Height:    72,
		Polygons:  600,
		Autopilot: true,
		AutoStart: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	final, err := c.WaitExamContext(context.Background(), 180*time.Second)
	if err != nil {
		t.Fatalf("WaitExamContext: %v (phase %v, msg %q)", err, final.Phase, final.Message)
	}
	if final.Phase != fom.PhaseComplete {
		t.Fatalf("exam phase = %v, score %.1f, msg %q", final.Phase, final.Score, final.Message)
	}
	if final.Score < 60 {
		t.Errorf("score = %v", final.Score)
	}
	sum := c.Summary()
	if sum.ServerSwaps == 0 {
		t.Error("no display swaps during exam")
	}
	if sum.AudioVoices == 0 {
		t.Error("audio module never played a sound")
	}
	if sum.Status.Score != final.Score {
		t.Errorf("instructor score %v != scenario score %v", sum.Status.Score, final.Score)
	}
	t.Logf("exam over COD: score=%.1f elapsed=%.1fs fps=%v audio=%d",
		final.Score, final.Elapsed, sum.DisplayFPS, sum.AudioVoices)
}

// TestAudioCapture verifies the training-review recording: the audio LP's
// mixed output is captured in a ring and exported chronologically.
func TestAudioCapture(t *testing.T) {
	c, err := New(Config{
		CB:              fastCB(),
		TimeScale:       8,
		Width:           96,
		Height:          72,
		Polygons:        400,
		RenderFrames:    4,
		Autopilot:       true,
		AutoStart:       true,
		CaptureAudioSec: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	deadline := time.Now().Add(15 * time.Second)
	for len(c.AudioPCM()) < 4096 {
		if time.Now().After(deadline) {
			t.Fatalf("captured only %d samples", len(c.AudioPCM()))
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	pcm := c.AudioPCM()
	// The autopilot starts the engine, so the capture is not silence.
	var energy float64
	for _, s := range pcm {
		energy += s * s
	}
	if energy == 0 {
		t.Error("captured audio is pure silence despite the running engine")
	}
	for i, s := range pcm {
		if s < -1 || s > 1 {
			t.Fatalf("sample %d = %v outside [-1,1]", i, s)
		}
	}
}

// TestClusterOverUDP boots the cluster on real loopback sockets.
func TestClusterOverUDP(t *testing.T) {
	lan, err := transport.NewUDPLAN("127.0.0.1", 39600, 16)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		LAN:          lan,
		CB:           fastCB(),
		TimeScale:    8,
		Width:        96,
		Height:       72,
		Polygons:     400,
		RenderFrames: 6,
		Autopilot:    true,
		AutoStart:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	deadline := time.Now().Add(20 * time.Second)
	for c.server.Swaps() < 6 {
		if time.Now().After(deadline) {
			t.Fatalf("swaps = %d over UDP", c.server.Swaps())
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
