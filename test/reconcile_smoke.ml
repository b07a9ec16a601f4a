(* Reconciliation smoke: the resilience experiment in its smallest
   configuration with the reliable layer on and the PR 3 acceptance
   storm — 20 % message loss on every control channel across the flash
   window, one OFA stall on the edge switch and one vswitch
   crash/recovery.

   Run by plain `dune runtest` and under the `@reconcile` alias.
   Asserts that convergence lands within a bounded number of reconcile
   rounds and then hands the recovered end state to the shared chaos
   oracle suite ([Scotch_chaos.Oracle.check]): reconciler convergence,
   zero invariant errors (including the divergence class) and
   exposure-bounded flow loss are judged by the same oracles as the
   searched chaos trials.  Prints the reconciliation-ledger digest —
   the bit-identity check for seeded runs.

   The same storm then runs again under continuous verification, which
   feeds every install and reconciler forget through the incremental
   verifier's intent deltas: it must apply updates, audit at least once
   against a full rescan with zero mismatches, and leave the
   reconciliation digest unchanged (verification observes, it never
   steers).  Exits non-zero on any miss. *)

open Scotch_faults
module R = Scotch_reliable.Reliable

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("reconcile smoke FAILED: " ^ s); exit 1) fmt

(* One storm run, judged; returns the run and its reconciliation digest. *)
let storm ?config () =
  let o =
    Scotch_experiments.Resilience.run_outcome ?config ~seed:42 ~scale:0.25 ~kills:1
      ~multiplier:5.0 ~reconcile:true ~drop_p:0.2 ()
  in
  let net = o.Scotch_experiments.Resilience.net in
  let r =
    match net.Scotch_experiments.Testbed.reliable with
    | Some r -> r
    | None -> fail "reliable layer was not built"
  in
  let engine = net.Scotch_experiments.Testbed.engine in
  (* bounded extra reconcile rounds past the experiment horizon *)
  let interval = (R.config r).R.reconcile_interval in
  let rounds = ref 0 in
  while (not (R.converged r)) && !rounds < 16 do
    incr rounds;
    Scotch_experiments.Testbed.run_until net
      ~until:(Scotch_sim.Engine.now engine +. interval)
  done;
  if not (R.converged r) then fail "reconciler never converged (16 extra rounds)";
  Printf.printf "converged after %d extra round(s)\n" !rounds;
  (match Ledger.convergence o.Scotch_experiments.Resilience.ledger with
  | None -> fail "no convergence block in the recovery ledger"
  | Some c ->
    if c.Ledger.conv_chan_dropped = 0 then fail "storm never bit: no control messages dropped";
    Printf.printf
      "storm: %d msg dropped, %d retries, %d+%d+%d repairs, %d resyncs, %d expired xids\n"
      c.Ledger.conv_chan_dropped c.Ledger.conv_retries c.Ledger.conv_repaired_missing
      c.Ledger.conv_repaired_orphans c.Ledger.conv_repaired_groups c.Ledger.conv_resyncs
      c.Ledger.conv_expired_requests);
  (* snapshot sanity the oracle cannot see: the reliable layer's
     intent stores must actually be in the capture *)
  let snap =
    Scotch_verify.Snapshot.capture ~scotch:net.Scotch_experiments.Testbed.app
      ~now:(Scotch_sim.Engine.now engine) net.Scotch_experiments.Testbed.topo
  in
  if snap.Scotch_verify.Snapshot.intents = None then fail "snapshot carries no intent stores";
  (* the converged end state, judged by the shared oracle suite:
     intent == actual (verify-clean, incl. divergence), reconciler
     converged with nothing outstanding, loss within the priced
     exposure of the storm *)
  let module O = Scotch_chaos.Oracle in
  (match
     O.check o.Scotch_experiments.Resilience.schedule
       (Scotch_experiments.Resilience.observation o)
   with
  | [] ->
    Printf.printf "oracle suite: clean (%d/%d flows delivered)\n"
      o.Scotch_experiments.Resilience.delivered o.Scotch_experiments.Resilience.launched
  | vs ->
    List.iter (fun v -> prerr_endline (Format.asprintf "%a" O.pp_violation v)) vs;
    fail "%d oracle violation(s) after convergence" (List.length vs));
  (o, R.digest r)

let () =
  let _, digest = storm () in
  Printf.printf "reconcile smoke OK (reconciliation digest %s)\n" digest;
  let config = { Scotch_core.Config.default with Scotch_core.Config.verify = Continuous } in
  let o, digest_verified = storm ~config () in
  let module Inc = Scotch_verify.Incremental in
  let incr =
    match Option.bind o.Scotch_experiments.Resilience.verify Scotch_verify.Hooks.incremental with
    | Some i -> i
    | None -> fail "continuous verification built no incremental verifier"
  in
  let s = Inc.stats incr in
  Printf.printf "continuous verify: %d updates, %d audits, %d mismatches\n" s.Inc.updates
    s.Inc.equiv_checks s.Inc.equiv_mismatches;
  if s.Inc.updates = 0 then fail "the verifier applied no updates";
  if s.Inc.equiv_checks = 0 then fail "the verifier ran no equivalence audit";
  if s.Inc.equiv_mismatches > 0 then fail "%d equivalence-audit mismatches" s.Inc.equiv_mismatches;
  if digest_verified <> digest then
    fail "reconciliation digest %s under continuous verify, %s without" digest_verified digest;
  Printf.printf "reconcile smoke (continuous verify) OK (reconciliation digest %s)\n"
    digest_verified
