//===- support/Signal.h - Cooperative graceful-stop flag -------*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide cooperative stop flag wired to SIGTERM/SIGINT. Signal
/// handlers may only touch async-signal-safe state, so the handler does
/// exactly one thing: set an atomic flag. Long-running drivers poll the
/// flag at safe points — evaluateSuite between benchmark slots, the
/// predictord accept/worker loops between requests — and wind down
/// cleanly: the persistent cache keeps every committed scope, and nothing
/// dies mid-append.
///
/// The flag is deliberately process-global (signals are process-global)
/// and latching: once requested, stop stays requested until resetForTests.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_SUPPORT_SIGNAL_H
#define VRP_SUPPORT_SIGNAL_H

namespace vrp::stopsignal {

/// Installs SIGTERM and SIGINT handlers that set the stop flag. Safe to
/// call more than once. Does NOT alter SIGKILL semantics (nothing can):
/// kill -9 still dies instantly — crash-resilience of the on-disk state
/// is owned by the store format (support/ResultStore.h), not by this
/// facility.
void installHandlers();

/// True once a stop was requested (by a signal or requestStop()).
bool stopRequested();

/// Programmatic equivalent of receiving SIGTERM (used by the daemon's
/// shutdown request and by tests).
void requestStop();

/// Clears the flag. Tests only — a real process stays stopping.
void resetForTests();

} // namespace vrp::stopsignal

#endif // VRP_SUPPORT_SIGNAL_H
