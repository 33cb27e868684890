(* The streaming activity kernel behind Estimate.run: its per-net counts
   against the materializing simulator, its memory bound at the paper's
   640 K patterns, and closed-form oracles for one-gate netlists. *)

module B = Logic.Bitvec
module M = Techmap.Mapped
module E = Techmap.Estimate
module G = Cell.Genlib

let tc = Alcotest.test_case

let mapped_of nl =
  let aig = Aigs.Opt.resyn2rs (Aigs.Aig.of_netlist nl) in
  Techmap.Mapper.map (Techmap.Matchlib.build ~cache:false G.generalized_cntfet) aig

let mult4 = lazy (mapped_of (Circuits.Multiplier.generate ~width:4))
let mult8 = lazy (mapped_of (Circuits.Multiplier.generate ~width:8))

(* Runs first, in a fresh process: nothing earlier has grown the heap, so
   a kernel that materialized per-net vectors (tens of MB of boxed words
   for mult8 at 640 K patterns) would show here. *)
let heap_bounded_at_640k () =
  let m = Lazy.force mult8 in
  Gc.full_major ();
  let top () = (Gc.quick_stat ()).Gc.top_heap_words in
  let before = top () in
  ignore (E.run ~patterns:E.default_patterns m);
  let grown_mb = float_of_int ((top () - before) * (Sys.word_size / 8)) /. 1048576.0 in
  if grown_mb >= 16.0 then
    Alcotest.failf "Estimate.run grew the major heap by %.1f MB (bound 16 MB)" grown_mb

(* 0, 1, a partial word, exact words, one 64-word chunk +- 1 word, and a
   partial tail word after several chunks (split across domains). *)
let pattern_counts = [ 0; 1; 63; 64; 65; 4032; 4096; 4160; 70_001 ]

let counts_match_materialized () =
  let m = Lazy.force mult4 in
  List.iter
    (fun patterns ->
      let stimulus =
        Nets.Sim.random_stimulus ~domains:1 ~seed:13L
          ~inputs:(Array.length m.M.pi_nets) ~patterns ()
      in
      let values = M.simulate ~domains:1 m stimulus in
      List.iter
        (fun domains ->
          let a = M.activity ~domains ~seed:13L m ~patterns in
          Array.iteri
            (fun net v ->
              let what = Printf.sprintf "net %d, %d patterns, %d domains" net patterns domains in
              Alcotest.(check int) ("ones " ^ what) (B.popcount v) a.M.ones.(net);
              Alcotest.(check int) ("toggles " ^ what) (B.transitions v) a.M.toggles.(net))
            values)
        [ 1; 2; 4 ])
    pattern_counts

(* Rail-tied nets are never written by the kernel: their counts come from
   the scratch initialization alone. *)
let constant_nets_counted () =
  let m = Lazy.force mult4 in
  let n = m.M.num_nets in
  let m = { m with M.num_nets = n + 2; const_nets = [| (n, true); (n + 1, false) |] } in
  let a = M.activity ~domains:2 m ~patterns:70_001 in
  Alcotest.(check int) "tied high: ones" 70_001 a.M.ones.(n);
  Alcotest.(check int) "tied high: toggles" 0 a.M.toggles.(n);
  Alcotest.(check int) "tied low: ones" 0 a.M.ones.(n + 1)

(* --- closed-form oracles ------------------------------------------- *)

let one_gate name =
  let gate = G.find_gate G.generalized_cntfet name in
  {
    M.lib = G.generalized_cntfet;
    num_nets = 3;
    pi_nets = [| ("a", 0); ("b", 1) |];
    po_nets = [| ("y", 2) |];
    const_nets = [||];
    cells = [| { M.gate; inputs = [| 0; 1 |]; output = 2 } |];
  }

(* Standard deviation of a toggle-rate estimate over [n] patterns of a
   net whose values are independent with P(1) = p: consecutive toggle
   indicators overlap in one pattern, which adds 2 (pq - alpha^2) per
   pair to the variance of alpha = 2pq. *)
let toggle_sigma ~p ~n =
  let q = 1.0 -. p in
  let alpha = 2.0 *. p *. q in
  sqrt (((alpha *. (1.0 -. alpha)) +. (2.0 *. ((p *. q) -. (alpha *. alpha)))) /. float_of_int (n - 1))

let within_4sigma what ~expected ~sigma got =
  if Float.abs (got -. expected) > 4.0 *. sigma then
    Alcotest.failf "%s: %.6f, expected %.6f +- 4 x %.2g" what got expected sigma

let one_gate_oracle name () =
  let m = one_gate name in
  let n = E.default_patterns in
  let tt = Cell.Cells.tt (G.find_gate G.generalized_cntfet name).G.cell in
  let a = M.activity m ~patterns:n in
  let rate net = float_of_int a.M.toggles.(net) /. float_of_int (n - 1) in
  let prob net = float_of_int a.M.ones.(net) /. float_of_int n in
  let p_out = float_of_int (Logic.Truthtable.count_ones tt) /. 4.0 in
  within_4sigma (name ^ " output toggle rate")
    ~expected:(Power.Activity.toggle_alpha tt)
    ~sigma:(toggle_sigma ~p:p_out ~n) (rate 2);
  List.iter
    (fun net ->
      within_4sigma
        (Printf.sprintf "PI net %d probability" net)
        ~expected:0.5
        ~sigma:(sqrt (0.25 /. float_of_int n))
        (prob net);
      within_4sigma
        (Printf.sprintf "PI net %d toggle rate" net)
        ~expected:0.5 ~sigma:(toggle_sigma ~p:0.5 ~n) (rate net))
    [ 0; 1 ];
  (* The estimator consumes exactly these counts. *)
  let r = E.run m in
  let vdd = G.generalized_cntfet.G.tech.Spice.Tech.vdd in
  let loads = M.net_loads m in
  let dynamic = ref 0.0 in
  for net = 0 to 2 do
    dynamic := !dynamic +. (rate net *. loads.(net) *. Spice.Tech.frequency *. vdd *. vdd)
  done;
  Alcotest.(check (float 0.0)) "dynamic from the kernel's counts" !dynamic r.E.dynamic;
  Alcotest.(check (float 0.0)) "short circuit = 0.15 x dynamic" (0.15 *. r.E.dynamic)
    r.E.short_circuit

let () =
  Alcotest.run "activity"
    [
      ("memory", [ tc "Estimate.run heap growth < 16 MB at 640 K" `Slow heap_bounded_at_640k ]);
      ( "kernel",
        [
          tc "ones/toggles = popcount/transitions, 1/2/4 domains" `Slow
            counts_match_materialized;
          tc "constant nets" `Quick constant_nets_counted;
        ] );
      ( "oracle",
        [
          tc "NAND2 toggle rate 0.375" `Slow (one_gate_oracle "NAND2");
          tc "XOR2 toggle rate 0.5" `Slow (one_gate_oracle "XOR2");
        ] );
    ]
