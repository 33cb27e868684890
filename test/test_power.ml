module P = Power.Pattern
module L = Power.Leakage
module Act = Power.Activity
module PM = Power.Powermodel
module Char = Power.Characterize
module N = Cell.Network
module Cells = Cell.Cells
module T = Logic.Truthtable

let pattern = Alcotest.testable P.pp P.equal

(* ------------------------------------------------------------------ *)
(* Pattern *)

let nor3_patterns () =
  (* Fig. 4: NOR3 at [0 0 0] leaves three parallel off devices; at [1 1 1]
     the pull-up series stack is off. *)
  let nor3 = Cells.find "NOR3" in
  let gp = P.analyze nor3.Cells.ambipolar ~pins:3 in
  Alcotest.check pattern "input 000" (P.Unit 3) gp.P.off_pattern.(0);
  Alcotest.check pattern "input 111"
    (P.Series [ P.Unit 1; P.Unit 1; P.Unit 1 ])
    gp.P.off_pattern.(7)

let nor3_vector_sharing () =
  (* The paper's example: [1 1 0] and [1 0 1] generate the same pattern. *)
  let nor3 = Cells.find "NOR3" in
  let gp = P.analyze nor3.Cells.ambipolar ~pins:3 in
  (* vector encoding: bit i = input i; [1 1 0] = A=1 B=1 C=0 = 0b011 *)
  Alcotest.check pattern "110 = 101" gp.P.off_pattern.(0b011) gp.P.off_pattern.(0b101)

let inverter_pattern_is_unit () =
  let inv = Cells.inverter in
  let gp = P.analyze inv.Cells.ambipolar ~pins:1 in
  Alcotest.check pattern "v=0" (P.Unit 1) gp.P.off_pattern.(0);
  Alcotest.check pattern "v=1" (P.Unit 1) gp.P.off_pattern.(1)

let canonicalization () =
  (* Nested/parallel structures normalize: parallel units merge, nesting
     flattens, order is canonical. *)
  let env _ = false in
  let net =
    N.Par
      [
        N.Dev (N.Fixed_n (N.sig_ 0));
        N.Par [ N.Dev (N.Fixed_n (N.sig_ 1)); N.Dev (N.Fixed_n (N.sig_ 2)) ];
      ]
  in
  match P.of_network net env with
  | Some p -> Alcotest.check pattern "merged units" (P.Unit 3) p
  | None -> Alcotest.fail "expected a pattern"

let on_network_has_no_pattern () =
  let env _ = true in
  let net = N.Dev (N.Fixed_n (N.sig_ 0)) in
  Alcotest.(check bool) "conducting network reduces to short" true
    (P.of_network net env = None)

let shorted_parallel_branch_removed () =
  (* An off device in parallel with an on device disappears (the paper's
     "off-transistors shorted by parallel on-transistors are removed"). *)
  let env i = i = 0 in
  let net =
    N.Ser
      [
        N.Par [ N.Dev (N.Fixed_n (N.sig_ 0)); N.Dev (N.Fixed_n (N.sig_ 1)) ];
        N.Dev (N.Fixed_n (N.sig_ 2));
      ]
  in
  match P.of_network net env with
  | Some p -> Alcotest.check pattern "only the series off remains" (P.Unit 1) p
  | None -> Alcotest.fail "expected a pattern"

let tgate_off_is_two_units () =
  let env _ = false in
  let net = N.Dev (N.Tgate (N.sig_ 0, N.sig_ 1)) in
  match P.of_network net env with
  | Some p -> Alcotest.check pattern "tgate off" (P.Unit 2) p
  | None -> Alcotest.fail "expected a pattern"

let census_is_26 () =
  Alcotest.(check int) "26 distinct patterns" 26
    (List.length (Char.pattern_census_all ()))

let device_counts_consistent () =
  List.iter
    (fun (c : Cells.t) ->
      let gp = P.analyze c.Cells.ambipolar ~pins:c.Cells.pins in
      let expected = N.impl_transistors c.Cells.ambipolar in
      Array.iteri
        (fun v on ->
          Alcotest.(check int)
            (Printf.sprintf "%s v=%d device balance" c.Cells.name v)
            expected
            (on + gp.P.off_devices.(v)
            (* inverters were counted once in on and once in off; they
               contribute 2 transistors to the impl count *)))
        gp.P.on_devices)
    Cells.all

(* ------------------------------------------------------------------ *)
(* Leakage *)

let unit_leakage_matches_tech () =
  L.clear_cache ();
  let i = L.pattern_ioff Spice.Tech.cmos (P.Unit 1) in
  let expected = Spice.Tech.cmos.Spice.Tech.ioff_unit in
  Alcotest.(check bool)
    (Printf.sprintf "unit %.3g ~ %.3g" i expected)
    true
    (abs_float (i -. expected) /. expected < 0.02)

let parallel_scales_linearly () =
  let u = L.pattern_ioff Spice.Tech.cmos (P.Unit 1) in
  let u3 = L.pattern_ioff Spice.Tech.cmos (P.Unit 3) in
  Alcotest.(check bool) "3x" true (abs_float (u3 -. (3.0 *. u)) /. u < 0.05)

let series_divides () =
  let u = L.pattern_ioff Spice.Tech.cmos (P.Unit 1) in
  let s2 = L.pattern_ioff Spice.Tech.cmos (P.Series [ P.Unit 1; P.Unit 1 ]) in
  Alcotest.(check bool) "stack leaks less" true (s2 < u && s2 > 0.0)

let empty_pattern_no_leak () =
  Alcotest.(check (float 0.0)) "unit 0" 0.0 (L.pattern_ioff Spice.Tech.cmos (P.Unit 0))

let cache_saves_solves () =
  L.clear_cache ();
  ignore (L.pattern_ioff Spice.Tech.cmos (P.Unit 2));
  ignore (L.pattern_ioff Spice.Tech.cmos (P.Unit 2));
  ignore (L.pattern_ioff Spice.Tech.cmos (P.Unit 2));
  let stats = L.cache_stats () in
  Alcotest.(check int) "one entry" 1 stats.L.entries;
  Alcotest.(check int) "one miss" 1 stats.L.misses;
  Alcotest.(check int) "two hits" 2 stats.L.hits;
  Alcotest.(check (float 1e-9)) "hit ratio" (2.0 /. 3.0) (L.hit_ratio stats)

(* The table lives in memory only: after a clear, the same pattern is
   solved again rather than reloaded, and nothing is written to disk. *)
let stays_cold_after_clear () =
  let p = P.Series [ P.Unit 3; P.Unit 1 ] in
  L.clear_cache ();
  let cold = L.pattern_ioff Spice.Tech.cntfet p in
  L.clear_cache ();
  let again = L.pattern_ioff Spice.Tech.cntfet p in
  Alcotest.(check (float 0.0)) "same current" cold again;
  Alcotest.(check int) "solved again, not loaded" 1 (L.cache_stats ()).L.misses;
  Alcotest.(check bool) "no _cache directory" false (Sys.file_exists "_cache")

let hit_ratio_zero_lookups () =
  (* A fresh cache has no lookups: the ratio must be a defined 0.0, not a
     0/0 NaN that poisons downstream telemetry. *)
  L.clear_cache ();
  let stats = L.cache_stats () in
  Alcotest.(check int) "no hits" 0 stats.L.hits;
  Alcotest.(check int) "no misses" 0 stats.L.misses;
  Alcotest.(check (float 0.0)) "ratio defined at 0/0" 0.0
    (L.hit_ratio stats)

let classification_matches_brute_force () =
  (* A1: for a few gates, per-vector leakage computed through pattern
     classification equals direct per-vector DC simulation of the full off
     network (which is what classification avoids). *)
  let tech = Spice.Tech.cntfet in
  List.iter
    (fun name ->
      let cell = Cells.find name in
      let gp = P.analyze cell.Cells.ambipolar ~pins:cell.Cells.pins in
      let fast = L.gate_ioff tech gp in
      (* Brute force: re-solve each vector's pattern without the cache. *)
      Array.iteri
        (fun v p ->
          L.clear_cache ();
          let direct =
            L.pattern_ioff tech p
            +. (float_of_int gp.P.extra_unit_offs *. L.pattern_ioff tech (P.Unit 1))
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s v=%d" name v)
            true
            (abs_float (direct -. fast.(v)) <= 1e-15))
        gp.P.off_pattern)
    [ "NAND2"; "NOR3"; "GNAND2"; "XOR2"; "AOI21" ]

(* ------------------------------------------------------------------ *)
(* Activity *)

let paper_activity_factors () =
  let alpha name = Act.gate_alpha (Cells.tt (Cells.find name)) in
  Alcotest.(check (float 1e-9)) "NAND2" 0.25 (alpha "NAND2");
  Alcotest.(check (float 1e-9)) "NOR2" 0.25 (alpha "NOR2");
  Alcotest.(check (float 1e-9)) "NAND3" 0.125 (alpha "NAND3");
  Alcotest.(check (float 1e-9)) "XOR2" 0.5 (alpha "XOR2");
  Alcotest.(check (float 1e-9)) "XNOR2" 0.5 (alpha "XNOR2");
  Alcotest.(check (float 1e-9)) "XOR3" 0.5 (alpha "XOR3");
  Alcotest.(check (float 1e-9)) "INV" 0.5 (alpha "INV")

let toggle_alpha_values () =
  Alcotest.(check (float 1e-9)) "xor toggle" 0.5 (Act.toggle_alpha (Cells.tt (Cells.find "XOR2")));
  Alcotest.(check (float 1e-9)) "nand toggle" 0.375
    (Act.toggle_alpha (Cells.tt (Cells.find "NAND2")))

let embedding_xor_does_not_raise_alpha () =
  (* The paper's observation: GNAND2 has the same output distribution as
     NAND2, so embedding the XOR costs no activity. *)
  let alpha name = Act.gate_alpha (Cells.tt (Cells.find name)) in
  Alcotest.(check (float 1e-9)) "GNAND2 = NAND2" (alpha "NAND2") (alpha "GNAND2");
  Alcotest.(check (float 1e-9)) "GNOR2 = NOR2" (alpha "NOR2") (alpha "GNOR2");
  Alcotest.(check (float 1e-9)) "GAOI21 = AOI21" (alpha "AOI21") (alpha "GAOI21")

(* ------------------------------------------------------------------ *)
(* Powermodel *)

let equations () =
  let vdd = 0.9 in
  let pd = PM.dynamic ~alpha:0.25 ~c_load:100e-18 ~f:1e9 ~vdd () in
  Alcotest.(check bool) "pd" true (abs_float (pd -. (0.25 *. 100e-18 *. 1e9 *. 0.81)) < 1e-15);
  Alcotest.(check bool) "psc = 0.15 pd" true
    (abs_float (PM.short_circuit_of_dynamic pd -. (0.15 *. pd)) < 1e-18);
  Alcotest.(check bool) "ps" true (abs_float (PM.static_power ~ioff:2e-9 ~vdd -. 1.8e-9) < 1e-15);
  let c = PM.make ~alpha:0.25 ~c_load:100e-18 ~ioff:2e-9 ~ig:1e-10 ~vdd () in
  Alcotest.(check bool) "total" true
    (abs_float (PM.total c -. (c.PM.dynamic +. c.PM.short_circuit +. c.PM.static +. c.PM.gate_leak))
    < 1e-18)

let edp_matches_table1_formula () =
  (* Check against a row of the paper: C2670 CMOS, PT = 25.42 uW,
     delay = 320 ps -> EDP = 8.13e-24. *)
  let edp = PM.edp ~total_power:25.42e-6 ~delay:320e-12 () in
  Alcotest.(check bool) (Printf.sprintf "edp %.3g" edp) true
    (abs_float (edp -. 8.13e-24) /. 8.13e-24 < 0.01)

(* ------------------------------------------------------------------ *)
(* Characterize *)

let characterization_sane () =
  let lc = Char.characterize Cell.Genlib.generalized_cntfet in
  Alcotest.(check int) "all gates" 46 (List.length lc.Char.gates);
  List.iter
    (fun (g : Char.gate_char) ->
      Alcotest.(check bool) "alpha in (0, 0.5]" true (g.Char.alpha > 0.0 && g.Char.alpha <= 0.5);
      Alcotest.(check bool) "positive power" true (PM.total g.Char.power > 0.0);
      Alcotest.(check bool) "ioff positive" true (g.Char.avg_ioff > 0.0))
    lc.Char.gates;
  Alcotest.(check int) "26 patterns in generalized lib" 26 lc.Char.pattern_count

let saving_vs_cmos_in_band () =
  let gen = Char.characterize Cell.Genlib.generalized_cntfet in
  let cmos = Char.characterize Cell.Genlib.cmos in
  let saving = Char.compare_totals gen cmos in
  (* Paper: 28 %. Accept the 20-45 % band for the reproduction. *)
  Alcotest.(check bool) (Printf.sprintf "saving %.1f%%" (saving *. 100.0)) true
    (saving > 0.20 && saving < 0.45)

let static_order_of_magnitude () =
  let gen = Char.characterize Cell.Genlib.generalized_cntfet in
  let cmos = Char.characterize Cell.Genlib.cmos in
  let ratio = cmos.Char.avg_static /. gen.Char.avg_static in
  Alcotest.(check bool) (Printf.sprintf "ratio %.1f" ratio) true (ratio > 5.0 && ratio < 20.0)

let gate_leak_shares () =
  let gen = Char.characterize Cell.Genlib.generalized_cntfet in
  let cmos = Char.characterize Cell.Genlib.cmos in
  Alcotest.(check bool) "cmos PG ~ 10% PS" true
    (cmos.Char.avg_gate_leak /. cmos.Char.avg_static > 0.05
    && cmos.Char.avg_gate_leak /. cmos.Char.avg_static < 0.2);
  Alcotest.(check bool) "cntfet PG < 1% PS" true
    (gen.Char.avg_gate_leak /. gen.Char.avg_static < 0.01)

let inverter_caps () =
  Alcotest.(check (float 1e-21)) "cntfet 36aF" 36e-18
    (Spice.Tech.inverter_input_cap Spice.Tech.cntfet);
  Alcotest.(check (float 1e-21)) "cmos 52aF" 52e-18
    (Spice.Tech.inverter_input_cap Spice.Tech.cmos)

(* qcheck: random pattern trees obey leakage physics. *)
let qcheck_pattern_gen =
  let open QCheck.Gen in
  let rec gen depth =
    if depth = 0 then map (fun k -> P.Unit (1 + k)) (int_bound 2)
    else
      frequency
        [
          (3, map (fun k -> P.Unit (1 + k)) (int_bound 2));
          (2, map (fun parts -> P.Series parts) (list_size (int_range 2 3) (gen (depth - 1))));
          (2, map (fun parts -> P.Parallel parts) (list_size (int_range 2 3) (gen (depth - 1))));
        ]
  in
  gen 2

let leakage_positive =
  QCheck.Test.make ~count:60 ~name:"pattern leakage is positive and bounded"
    (QCheck.make qcheck_pattern_gen)
    (fun p ->
      let i = L.pattern_ioff Spice.Tech.cntfet p in
      (* No pattern can leak more than all its devices in parallel. *)
      let rec max_units = function
        | P.Unit k -> k
        | P.Series parts | P.Parallel parts ->
            List.fold_left (fun acc q -> acc + max_units q) 0 parts
      in
      let bound =
        float_of_int (max_units p) *. Spice.Tech.cntfet.Spice.Tech.ioff_unit *. 1.05
      in
      i > 0.0 && i <= bound)

let leakage_parallel_monotone =
  QCheck.Test.make ~count:40 ~name:"adding a parallel branch increases leakage"
    (QCheck.make qcheck_pattern_gen)
    (fun p ->
      let i = L.pattern_ioff Spice.Tech.cntfet p in
      let bigger = L.pattern_ioff Spice.Tech.cntfet (P.Parallel [ p; P.Unit 1 ]) in
      bigger > i)

let leakage_series_monotone =
  QCheck.Test.make ~count:40 ~name:"adding a series device decreases leakage"
    (QCheck.make qcheck_pattern_gen)
    (fun p ->
      let i = L.pattern_ioff Spice.Tech.cntfet p in
      let smaller = L.pattern_ioff Spice.Tech.cntfet (P.Series [ p; P.Unit 1 ]) in
      smaller < i +. 1e-18)

let () =
  Alcotest.run "power"
    [
      ( "pattern",
        [
          Alcotest.test_case "nor3 fig4" `Quick nor3_patterns;
          Alcotest.test_case "nor3 vector sharing" `Quick nor3_vector_sharing;
          Alcotest.test_case "inverter unit" `Quick inverter_pattern_is_unit;
          Alcotest.test_case "canonicalization" `Quick canonicalization;
          Alcotest.test_case "on network" `Quick on_network_has_no_pattern;
          Alcotest.test_case "shorted branch removed" `Quick shorted_parallel_branch_removed;
          Alcotest.test_case "tgate off" `Quick tgate_off_is_two_units;
          Alcotest.test_case "census = 26" `Quick census_is_26;
          Alcotest.test_case "device counts" `Quick device_counts_consistent;
        ] );
      ( "leakage",
        [
          Alcotest.test_case "unit matches tech" `Quick unit_leakage_matches_tech;
          Alcotest.test_case "parallel linear" `Quick parallel_scales_linearly;
          Alcotest.test_case "series divides" `Quick series_divides;
          Alcotest.test_case "empty pattern" `Quick empty_pattern_no_leak;
          Alcotest.test_case "cache saves solves" `Quick cache_saves_solves;
          Alcotest.test_case "stays cold after clear" `Quick stays_cold_after_clear;
          Alcotest.test_case "hit ratio with zero lookups" `Quick
            hit_ratio_zero_lookups;
          Alcotest.test_case "classification = brute force" `Slow classification_matches_brute_force;
        ] );
      ( "leakage-properties",
        List.map QCheck_alcotest.to_alcotest
          [ leakage_positive; leakage_parallel_monotone; leakage_series_monotone ] );
      ( "activity",
        [
          Alcotest.test_case "paper values" `Quick paper_activity_factors;
          Alcotest.test_case "toggle defn" `Quick toggle_alpha_values;
          Alcotest.test_case "xor embedding free" `Quick embedding_xor_does_not_raise_alpha;
        ] );
      ( "powermodel",
        [
          Alcotest.test_case "equations" `Quick equations;
          Alcotest.test_case "edp table1 formula" `Quick edp_matches_table1_formula;
        ] );
      ( "characterize",
        [
          Alcotest.test_case "library sane" `Slow characterization_sane;
          Alcotest.test_case "saving vs cmos" `Slow saving_vs_cmos_in_band;
          Alcotest.test_case "static order of magnitude" `Slow static_order_of_magnitude;
          Alcotest.test_case "gate leak shares" `Slow gate_leak_shares;
          Alcotest.test_case "inverter caps" `Quick inverter_caps;
        ] );
    ]
