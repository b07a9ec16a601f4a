(* Multi-tenant isolation smoke: the blast-radius experiment at
   reduced scale, both legs under continuous dataplane verification.
   [Isolation.failures] asserts the attacker's flood is shed entirely
   inside its own budget (victim sheds exactly zero), the victim's
   admitted-flow p99 and delivery are statistically unchanged versus
   the no-attack baseline, the per-function breaker held at least one
   drained-but-forwarding member mid-run and both verified legs stay
   invariant-clean; same-seed runs must also be bit-identical. *)

open Scotch_experiments

let scale = 0.5
let verify = Scotch_core.Config.Continuous

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("isolation_smoke: FAIL: " ^ s);
      exit 1)
    fmt

let () =
  let p = Isolation.run_pair ~scale ~verify () in
  let b = p.Isolation.baseline and a = p.Isolation.attacked in
  Printf.printf "isolation_smoke: victim p99 %s -> %s (delta %.2f%%), delivery %.4f -> %.4f\n%!"
    (match b.Isolation.victim_p99 with Some q -> Printf.sprintf "%.4fs" q | None -> "n/a")
    (match a.Isolation.victim_p99 with Some q -> Printf.sprintf "%.4fs" q | None -> "n/a")
    (100.0 *. p.Isolation.p99_delta) b.Isolation.victim_delivery a.Isolation.victim_delivery;
  Printf.printf
    "isolation_smoke: attacker launched=%d shed=%d; drained-forwarding peak=%d; verify \
     checks=%d errors=%d\n%!"
    a.Isolation.attacker_launched a.Isolation.attacker_shed a.Isolation.drained_forwarding
    a.Isolation.verify_checks a.Isolation.verify_errors;
  List.iter (fail "%s") (Isolation.failures p);

  (* determinism: same seed, same bits *)
  let a2 = Isolation.run_variant ~attack:true ~verify ~seed:42 ~scale () in
  if a.Isolation.ledger_digest <> a2.Isolation.ledger_digest then
    fail "ledger digest differs across same-seed runs";
  if a.Isolation.trace_digest <> a2.Isolation.trace_digest then
    fail "obs trace digest differs across same-seed runs";

  print_endline "isolation_smoke: OK"
