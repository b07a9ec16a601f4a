(* Graceful-degradation smoke: the overload experiment at reduced
   scale.  A flash crowd at 3x pool capacity plus a mid-crowd gray
   failure must leave the admitted-flow p99 decision latency inside the
   admission-control bound, the autoscaler must grow the pool and drain
   it back without oscillating, the breaker must eject and readmit the
   degraded member, and the whole run must be bit-identical across two
   same-seed executions (ledger + obs-trace digests). *)

open Scotch_experiments
module Elastic = Scotch_elastic.Elastic

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("overload_smoke: FAIL: " ^ s);
      exit 1)
    fmt

let scale = 0.5

let () =
  let o = Overload.run_outcome ~scale ~verify:Scotch_core.Config.Continuous () in
  let o2 = Overload.run_outcome ~scale ~verify:Scotch_core.Config.Continuous () in
  let st = Overload.run_outcome ~scale ~elastic:false () in
  Printf.printf
    "overload_smoke: p99=%s launched=%d delivered=%d shed=%d actions=%d ejects=%d \
     readmits=%d final_pool=%d\n%!"
    (match o.Overload.p99 with Some q -> Printf.sprintf "%.3fs" q | None -> "n/a")
    o.Overload.launched o.Overload.delivered o.Overload.shed
    (List.length o.Overload.actions) o.Overload.ejects o.Overload.readmits
    o.Overload.final_pool;
  (match o.Overload.elastic with
  | Some a ->
    let c = Elastic.counters a in
    Printf.printf "overload_smoke: probes=%d timeouts=%d score100=%s\n%!"
      c.Elastic.probes_sent c.Elastic.probe_timeouts
      (match Elastic.health_score a 100 with
      | Some s -> Printf.sprintf "%.2f" s
      | None -> "n/a")
  | None -> ());

  (* overload actually happened: the admission layer shed work *)
  if o.Overload.shed = 0 then fail "expected admission-layer shedding under a 3x flash";

  (* bounded admitted-flow p99, drain back to the baseline pool, and
     the breaker caught the gray failure and later readmitted it *)
  List.iter (fail "%s") (Overload.failures o);

  (* the autoscaler grew the pool under load... *)
  let ups = List.filter (fun a -> a.Elastic.dir = `Up) o.Overload.actions in
  if ups = [] then fail "autoscaler never scaled up under a 3x flash";
  let peak_pool = Overload.peak_pool o in
  if peak_pool <= Overload.num_active then
    fail "active pool never grew past %d (peak %d)" Overload.num_active peak_pool;

  (* ...and converged back down: quiet at the end *)
  let horizon =
    List.fold_left (fun acc (t, _) -> Stdlib.max acc t) 0.0 o.Overload.pool_timeline
  in
  List.iter
    (fun a ->
      if a.Elastic.time > horizon -. 5.0 then
        fail "autoscaler still acting at t=%.1f (horizon %.1f): not converged"
          a.Elastic.time horizon)
    o.Overload.actions;

  (* no flapping: adjacent opposite-direction actions must be separated
     by at least the cooldown, and the action count stays bounded *)
  let rec check_flap = function
    | a :: (b :: _ as rest) ->
      if a.Elastic.dir <> b.Elastic.dir && b.Elastic.time -. a.Elastic.time < 2.0 then
        fail "autoscaler flapped: %s then %s within %.2fs"
          (match a.Elastic.dir with `Up -> "up" | `Down -> "down")
          (match b.Elastic.dir with `Up -> "up" | `Down -> "down")
          (b.Elastic.time -. a.Elastic.time);
      check_flap rest
    | _ -> ()
  in
  check_flap o.Overload.actions;
  if List.length o.Overload.actions > 2 * Overload.max_pool then
    fail "%d autoscaler actions: oscillating" (List.length o.Overload.actions);

  (* graceful, not magical: a sustained 3x flash cannot be fully served
     (scale-up spends most of the crowd ramping), but the elastic pool
     must deliver substantially more than the static one and keep the
     delivered fraction above a floor *)
  if o.Overload.launched = 0 then fail "no flows launched";
  let frac = float_of_int o.Overload.delivered /. float_of_int o.Overload.launched in
  if frac < 0.3 then fail "only %.0f%% of flows delivered" (100.0 *. frac);
  Printf.printf "overload_smoke: delivered elastic=%d static=%d (launched %d)\n%!"
    o.Overload.delivered st.Overload.delivered o.Overload.launched;
  if float_of_int o.Overload.delivered < 1.15 *. float_of_int st.Overload.delivered then
    fail "elastic pool delivered %d vs static %d: autoscaling bought < 15%%"
      o.Overload.delivered st.Overload.delivered;

  (* determinism: same seed, same bits *)
  if o.Overload.ledger_digest <> o2.Overload.ledger_digest then
    fail "ledger digest differs across same-seed runs";
  if o.Overload.trace_digest <> o2.Overload.trace_digest then
    fail "obs trace digest differs across same-seed runs";

  (* the run was continuously verified and stayed invariant-clean:
     autoscaling, breaker ejections and the gray failure never left a
     loop, blackhole or divergent rule behind *)
  (match o.Overload.net.Testbed.verify with
  | None -> fail "verification hooks not installed despite Continuous config"
  | Some v ->
    if Scotch_verify.Hooks.checks_run v = 0 then fail "verifier never checked";
    if Scotch_verify.Hooks.error_count v > 0 then
      fail "%d dataplane invariant errors under overload"
        (Scotch_verify.Hooks.error_count v);
    (match Scotch_verify.Hooks.incremental v with
    | None -> fail "no incremental verifier in Continuous mode"
    | Some incr ->
      let s = Scotch_verify.Incremental.stats incr in
      Printf.printf
        "overload_smoke: verify updates=%d classes=%d equiv=%d/%d p50=%.0fus p99=%.0fus\n%!"
        s.Scotch_verify.Incremental.updates s.Scotch_verify.Incremental.classes_touched
        s.Scotch_verify.Incremental.equiv_checks s.Scotch_verify.Incremental.equiv_mismatches
        s.Scotch_verify.Incremental.p50_us s.Scotch_verify.Incremental.p99_us;
      if s.Scotch_verify.Incremental.equiv_mismatches > 0 then
        fail "incremental verifier disagreed with full rescan %d times"
          s.Scotch_verify.Incremental.equiv_mismatches));

  print_endline "overload_smoke: OK"
