(* Fast failover smoke: the resilience experiment in its smallest
   configuration (quarter duration, gentle flash crowd, 2 kills), run
   as part of `dune runtest` and under the `@resilience` alias.

   Asserts the full §5.6 story — heartbeat detection inside
   [timeout, timeout + period + slack], a backup promoted for every
   kill, every select group rebalanced, and both corpses revived — and
   prints the recovery ledger.  The recovered end state is judged by
   the shared chaos oracle suite ([Scotch_chaos.Oracle.check] on the
   run restated as a schedule): post-recovery dataplane cleanliness
   and exposure-bounded flow loss use the same definition of healthy
   as the searched chaos trials.  With [Config.verify = Phases],
   the invariant checker additionally runs mid-run after
   every recovery — states the end-state oracle cannot see — and must
   find zero errors there too.  Exits non-zero on any miss. *)

open Scotch_faults

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("resilience smoke FAILED: " ^ s); exit 1) fmt

let () =
  let config = { Scotch_core.Config.default with Scotch_core.Config.verify = Phases } in
  let o =
    Scotch_experiments.Resilience.run_outcome ~config ~seed:42 ~scale:0.25 ~kills:2
      ~multiplier:5.0 ()
  in
  let ledger = o.Scotch_experiments.Resilience.ledger in
  Ledger.print ledger;
  let recs = Ledger.records ledger in
  if List.length recs <> 2 then fail "expected 2 ledger records, got %d" (List.length recs);
  List.iter
    (fun (r : Ledger.record) ->
      (match Ledger.detection_latency r with
      | None -> fail "%s: heartbeat loss never detected" r.Ledger.label
      | Some d when d < 3.0 || d > 4.5 -> fail "%s: detection latency %.3f s out of range" r.Ledger.label d
      | Some _ -> ());
      (match Ledger.time_to_rebalance r with
      | None -> fail "%s: select groups never rebalanced" r.Ledger.label
      | Some t when t >= 6.0 -> fail "%s: rebalance took %.3f s" r.Ledger.label t
      | Some _ -> ());
      if r.Ledger.backup_promoted = None then fail "%s: no backup promoted" r.Ledger.label;
      if r.Ledger.cleared_at = None then fail "%s: vswitch never revived" r.Ledger.label)
    recs;
  (* the end state, judged by the shared oracle suite: verify-clean,
     bounded loss at this schedule's priced exposure, convergence *)
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
    fail "%d oracle violation(s) in the recovered end state" (List.length vs));
  (* mid-run checks the end-state oracle cannot express: the invariant
     checker must have run (and passed) after each recovery *)
  (match o.Scotch_experiments.Resilience.verify with
  | None -> fail "invariant-checker hooks were not installed"
  | Some v ->
    let module H = Scotch_verify.Hooks in
    let post_recovery = H.reports_of_phase v "post-recovery" in
    if List.length post_recovery < 2 then
      fail "expected a post-recovery check per kill, got %d" (List.length post_recovery);
    if H.reports_of_phase v "run-end" = [] then fail "no run-end check";
    List.iter
      (fun (r : H.report) ->
        match Scotch_verify.Diagnostic.errors r.H.diagnostics with
        | [] -> ()
        | errs ->
          List.iter (fun d -> prerr_endline (Scotch_verify.Diagnostic.to_string d)) errs;
          fail "%s check at t=%.2f found %d invariant error(s)" r.H.phase r.H.at
            (List.length errs))
      (H.reports v);
    Printf.printf "invariant checker: %d check(s), 0 errors\n" (H.checks_run v));
  Printf.printf "resilience smoke OK (ledger digest %s)\n" (Ledger.digest ledger)
