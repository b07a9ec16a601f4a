(* Sampled-telemetry smoke: the detection-quality experiment at smoke
   scale.  Exact polling and 1/100 packet sampling run on the same seed
   and workload; the sampled path must find the planted elephants
   without false alarms while spending a fraction of the exact path's
   stats-channel messages and bytes ([Telemetry.failures] holds the
   bounds), both ledgers must equal their pinned values,
   and two same-seed sampled runs must be bit-identical
   (`dune build @telemetry`). *)

open Scotch_experiments

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("telemetry_smoke: FAIL: " ^ s);
      exit 1)
    fmt

let scale = 0.25

let () =
  let exact, sampled =
    Telemetry.summary ~scale ~verify:Scotch_core.Config.Continuous ()
  in
  let reduction = Telemetry.reduction ~exact ~sampled in
  Printf.printf
    "telemetry_smoke: exact %d/%d detected ttd=%.2fs %d msgs %d bytes | sampled@%g %d/%d \
     detected ttd=%.2fs %d msgs %d bytes | reduction %.0fx\n%!"
    exact.Telemetry.o_true_pos exact.Telemetry.o_truth exact.Telemetry.o_ttd
    exact.Telemetry.o_msgs exact.Telemetry.o_bytes Telemetry.default_rate
    sampled.Telemetry.o_true_pos sampled.Telemetry.o_truth sampled.Telemetry.o_ttd
    sampled.Telemetry.o_msgs sampled.Telemetry.o_bytes reduction;

  (* the exact baseline works: it is what the sampled path must match *)
  if exact.Telemetry.o_recall < 1.0 then
    fail "exact baseline missed elephants (recall %.2f)" exact.Telemetry.o_recall;

  (* detection quality at 1/100 sampling and the point of the
     subsystem: a >= 10x cheaper stats channel *)
  List.iter (fail "%s") (Telemetry.failures ~exact ~sampled);

  (* elephants actually migrated off the overlay under sampling *)
  if sampled.Telemetry.o_migrations = 0 then
    fail "sampled detection triggered no migrations";

  (* the detection ledger, pinned exactly: a drift in message sizing
     (or in what the pollers send) must show here, not only when it
     happens to cross the reduction bound above.  A change that moves these
     values re-pins them and says why. *)
  let pin name (o : Telemetry.outcome) msgs bytes =
    if (o.Telemetry.o_msgs, o.Telemetry.o_bytes) <> (msgs, bytes) then
      fail "%s ledger (%d msgs, %d bytes) <> pinned (%d msgs, %d bytes)" name
        o.Telemetry.o_msgs o.Telemetry.o_bytes msgs bytes
  in
  pin "exact" exact 168727 11803882;
  pin "sampled" sampled 288 5396;

  (* both runs were continuously verified and stayed invariant-clean *)
  if exact.Telemetry.o_verify_checks = 0 then fail "exact run: verifier never checked";
  if sampled.Telemetry.o_verify_checks = 0 then fail "sampled run: verifier never checked";
  if exact.Telemetry.o_verify_errors > 0 then
    fail "exact run: %d dataplane invariant errors" exact.Telemetry.o_verify_errors;
  if sampled.Telemetry.o_verify_errors > 0 then
    fail "sampled run: %d dataplane invariant errors" sampled.Telemetry.o_verify_errors;

  (* same-seed determinism of the full sampled pipeline (including the
     verification check/error counts in the outcome) *)
  let _, sampled2 = Telemetry.summary ~scale ~verify:Scotch_core.Config.Continuous () in
  if sampled2 <> sampled then fail "same-seed sampled runs diverged";

  print_endline "telemetry_smoke: OK"
