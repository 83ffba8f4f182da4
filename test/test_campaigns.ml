(* Tests for the deterministic PRNG and the randomized injection
   campaigns (§IV-C). *)

open Ii_xen
open Ii_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Prng --------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:123L in
  let b = Prng.create ~seed:123L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_seed_matters () =
  let a = Prng.create ~seed:1L in
  let b = Prng.create ~seed:2L in
  check_bool "different streams" true
    (List.init 8 (fun _ -> Prng.next a) <> List.init 8 (fun _ -> Prng.next b))

let test_prng_zero_seed () =
  let a = Prng.create ~seed:0L in
  check_bool "zero seed produces output" true (Prng.next a <> 0L)

let test_prng_copy () =
  let a = Prng.create ~seed:9L in
  ignore (Prng.next a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.next a) (Prng.next b)

let test_prng_int_bounds () =
  let rng = Prng.create ~seed:5L in
  for _ = 1 to 1000 do
    let v = Prng.int rng ~bound:7 in
    check_bool "in range" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng ~bound:0))

let test_prng_choose () =
  let rng = Prng.create ~seed:5L in
  let xs = [ "a"; "b"; "c" ] in
  for _ = 1 to 100 do
    check_bool "member" true (List.mem (Prng.choose rng xs) xs)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Prng.choose: empty list") (fun () ->
      ignore (Prng.choose rng []))

let prop_prng_int_distribution =
  QCheck.Test.make ~name:"prng ints cover the range" ~count:20
    QCheck.(int_range 2 32)
    (fun bound ->
      let rng = Prng.create ~seed:(Int64.of_int (bound * 7919)) in
      let seen = Array.make bound false in
      for _ = 1 to bound * 64 do
        seen.(Prng.int rng ~bound) <- true
      done;
      Array.for_all (fun b -> b) seen)

(* --- Random_campaign ------------------------------------------------------ *)

(* One version's randomized campaign, through the scheduler. *)
let campaign ~seed ~trials ~targets version =
  match Campaign_scheduler.run ~seed ~trials ~targets [ version ] with
  | [ s ] -> s
  | _ -> Alcotest.fail "one summary per version"

let small ?(targets = Random_campaign.intrusion_targets) ?(seed = 7L) version =
  campaign ~seed ~trials:30 ~targets version

let test_campaign_shape () =
  let s = small Version.V4_6 in
  check_int "trials recorded" 30 (List.length s.Random_campaign.trials);
  check_int "tally sums to trials" 30
    (List.fold_left (fun acc (_, n) -> acc + n) 0 s.Random_campaign.tally);
  check_bool "indices ordered" true
    (List.mapi (fun i t -> t.Random_campaign.index = i) s.Random_campaign.trials
    |> List.for_all (fun b -> b))

let test_campaign_deterministic () =
  let a = small Version.V4_8 in
  let b = small Version.V4_8 in
  check_bool "same outcomes" true
    (List.map (fun t -> t.Random_campaign.outcome) a.Random_campaign.trials
    = List.map (fun t -> t.Random_campaign.outcome) b.Random_campaign.trials);
  check_bool "same addresses" true
    (List.map (fun t -> t.Random_campaign.t_addr) a.Random_campaign.trials
    = List.map (fun t -> t.Random_campaign.t_addr) b.Random_campaign.trials)

let test_campaign_same_trials_across_versions () =
  let sums = Campaign_scheduler.run ~seed:7L ~trials:30 Version.all in
  match sums with
  | [ a; b; c ] ->
      let addrs s = List.map (fun t -> t.Random_campaign.t_addr) s.Random_campaign.trials in
      check_bool "same targets hit on every version" true
        (addrs a = addrs b && addrs b = addrs c)
  | _ -> Alcotest.fail "three summaries"

let test_campaign_idt_class_crashes () =
  let s =
    campaign ~seed:42L ~trials:60 ~targets:[ Random_campaign.Idt_gates ] Version.V4_6
  in
  check_bool "some crashes" true (List.assoc Random_campaign.Crashed s.Random_campaign.tally > 0);
  (* crashes must come with a crash violation recorded *)
  List.iter
    (fun t ->
      if t.Random_campaign.outcome = Random_campaign.Crashed then
        check_bool "crash violation attached" true
          (List.exists
             (function Monitor.Hypervisor_crash _ -> true | _ -> false)
             t.Random_campaign.t_violations))
    s.Random_campaign.trials

let test_campaign_m2p_class_violates_integrity () =
  let s =
    campaign ~seed:11L ~trials:40 ~targets:[ Random_campaign.M2p_entries ] Version.V4_8
  in
  check_bool "m2p corruption observable" true
    (List.assoc Random_campaign.Violated s.Random_campaign.tally > 0)

let test_campaign_soft_errors_are_latent () =
  (* single accidental bit flips mostly stay latent: never Refused, and
     the campaign survives them without exceptions *)
  let s =
    campaign ~seed:3L ~trials:50 ~targets:[ Random_campaign.Soft_error_bit_flip ]
      Version.V4_6
  in
  check_int "nothing refused" 0 (List.assoc Random_campaign.Refused s.Random_campaign.tally);
  check_int "tally total" 50
    (List.fold_left (fun acc (_, n) -> acc + n) 0 s.Random_campaign.tally)

let test_campaign_reboots_after_crash () =
  (* with only the IDT class and many trials, several crashes occur; the
     campaign must keep making progress (fresh testbeds) *)
  let s =
    campaign ~seed:42L ~trials:80 ~targets:[ Random_campaign.Idt_gates ] Version.V4_6
  in
  check_int "all trials ran" 80 (List.length s.Random_campaign.trials)

let test_campaign_component_hooks () =
  let s =
    campaign ~seed:5L ~trials:40 ~targets:[ Random_campaign.Component_hooks ]
      Version.V4_8
  in
  check_int "all trials ran" 40 (List.length s.Random_campaign.trials);
  check_int "none refused" 0 (List.assoc Random_campaign.Refused s.Random_campaign.tally);
  (* hooks are observable: the majority of trials violate something *)
  check_bool "violations observed" true
    (List.assoc Random_campaign.Violated s.Random_campaign.tally
     + List.assoc Random_campaign.Crashed s.Random_campaign.tally
    > 10);
  (* determinism still holds with hooks in the mix *)
  let s2 =
    campaign ~seed:5L ~trials:40 ~targets:[ Random_campaign.Component_hooks ]
      Version.V4_8
  in
  check_bool "deterministic" true
    (List.map (fun t -> t.Random_campaign.outcome) s.Random_campaign.trials
    = List.map (fun t -> t.Random_campaign.outcome) s2.Random_campaign.trials)

let test_campaign_rejects_empty_targets () =
  Alcotest.check_raises "no targets" (Invalid_argument "Campaign_scheduler: no targets")
    (fun () -> ignore (Campaign_scheduler.run ~seed:42L ~targets:[] ~trials:60 [ Version.V4_6 ]))

let test_campaign_render () =
  let sums = Campaign_scheduler.run ~seed:7L ~trials:10 [ Version.V4_6; Version.V4_13 ] in
  let s = Random_campaign.render sums in
  check_bool "mentions versions" true
    (let has needle =
       let n = String.length needle and m = String.length s in
       let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
       go 0
     in
     has "4.6" && has "4.13" && has "crashed")

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let () =
  Alcotest.run "campaigns"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed matters" `Quick test_prng_seed_matters;
          Alcotest.test_case "zero seed" `Quick test_prng_zero_seed;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "choose" `Quick test_prng_choose;
        ]
        @ qsuite [ prop_prng_int_distribution ] );
      ( "random_campaign",
        [
          Alcotest.test_case "shape" `Quick test_campaign_shape;
          Alcotest.test_case "deterministic" `Quick test_campaign_deterministic;
          Alcotest.test_case "same trials across versions" `Quick
            test_campaign_same_trials_across_versions;
          Alcotest.test_case "idt class crashes" `Quick test_campaign_idt_class_crashes;
          Alcotest.test_case "m2p class violates integrity" `Quick
            test_campaign_m2p_class_violates_integrity;
          Alcotest.test_case "soft errors are latent" `Quick test_campaign_soft_errors_are_latent;
          Alcotest.test_case "reboots after crash" `Quick test_campaign_reboots_after_crash;
          Alcotest.test_case "component hooks" `Quick test_campaign_component_hooks;
          Alcotest.test_case "rejects empty targets" `Quick test_campaign_rejects_empty_targets;
          Alcotest.test_case "render" `Quick test_campaign_render;
        ] );
    ]
