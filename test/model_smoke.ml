(* Model smoke (`dune build @model`; also part of plain `dune
   runtest`):

   1. model-vs-sim: the analytic OFA model passes
      [Model_check.failures] against the discrete-event OFA (queue
      depth and Packet-In latency below saturation, blocking at every
      load), and the sweep is same-seed bit-identical (digest
      equality);
   2. reactive bit-identity: an overload run under the default config
      and one under an explicit [Config.scaling = Reactive] produce
      identical ledger and obs-trace digests — the predictive machinery
      is provably inert unless switched on;
   3. predictive win: under a moderate (5x) flash crowd the predictive
      autoscaler reaches max pool sooner and beats reactive on both
      total shed count and admitted-flow p99 at the same peak pool
      size, and still drains back to the baseline pool
      ([Overload.predictive_failures]). *)

module MC = Scotch_experiments.Model_check
module OV = Scotch_experiments.Overload

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("model smoke FAIL: " ^ s); exit 1) fmt

let scale = 0.5
let multiplier = 5.0 (* moderate overload: timing, not raw saturation *)

let check_model_vs_sim () =
  let o = MC.summary ~seed:42 ~scale () in
  List.iter (fail "%s") (MC.failures o);
  let o2 = MC.summary ~seed:42 ~scale () in
  if o.MC.digest <> o2.MC.digest then fail "model-check digest differs across same-seed runs";
  o

let () =
  let mc = check_model_vs_sim () in

  (* reactive bit-identity: scaling defaults to Reactive *)
  let dflt = OV.run_outcome ~seed:42 ~scale ~multiplier () in
  let react =
    OV.run_outcome ~seed:42 ~scale ~multiplier ~scaling:Scotch_core.Config.Reactive ()
  in
  if dflt.OV.ledger_digest <> react.OV.ledger_digest then
    fail "explicit Reactive changed the ledger digest vs the default config";
  if dflt.OV.trace_digest <> react.OV.trace_digest then
    fail "explicit Reactive changed the obs-trace digest vs the default config";

  (* predictive beats reactive at equal peak pool *)
  let pred =
    OV.run_outcome ~seed:42 ~scale ~multiplier ~scaling:Scotch_core.Config.Predictive ()
  in
  List.iter (fail "%s") (OV.predictive_failures ~reactive:react ~predictive:pred);
  let p99 (o : OV.outcome) = Option.value o.OV.p99 ~default:Float.nan in
  let first_up (o : OV.outcome) = Option.value (OV.first_scale_up o) ~default:Float.nan in

  Printf.printf
    "model smoke OK: queue err %.1f%%, sojourn err %.1f%% (digest %s); predictive vs reactive \
     at x%.1f: shed %d<%d, p99 %.4f<=%.4f, first up %.2fs<%.2fs, peak pool %d, drained to %d\n"
    (100.0 *. mc.MC.max_queue_err)
    (100.0 *. mc.MC.max_sojourn_err)
    mc.MC.digest multiplier pred.OV.shed react.OV.shed (p99 pred) (p99 react) (first_up pred)
    (first_up react) (OV.peak_pool pred) pred.OV.final_pool
