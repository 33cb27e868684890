(* The streaming activity kernel behind Estimate.run: its per-literal
   counts against the materializing simulator and against the per-family
   mapped-netlist sweep it replaced, its memory bound at the paper's
   640 K patterns, and closed-form oracles. *)

module A = Aigs.Aig
module B = Logic.Bitvec
module M = Techmap.Mapped
module E = Techmap.Estimate
module Act = Techmap.Activity
module G = Cell.Genlib

let tc = Alcotest.test_case

(* The streaming sweep over a mapped netlist that estimated every family
   separately before the subject-AIG sweep, verbatim (lowering, cube
   kernel, chunking, halo and counting), with the pool run directly
   instead of through the telemetry wrapper. Per-net counts under
   [activity] are the oracle for the AIG sweep read by net literal. *)
module Reference_activity = struct
  module A1 = Bigarray.Array1
  module T = Logic.Truthtable

  type rows = (int64, Bigarray.int64_elt, Bigarray.c_layout) A1.t

  let chunk_words = 64

  type program = {
    out_rows : int array;
    cell_first : int array;
    cube_first : int array;
    lits : int array;
  }

  let lower (t : M.t) =
    let covers = Hashtbl.create 32 in
    let cover_of gate =
      let name = gate.G.cell.Cell.Cells.name in
      match Hashtbl.find_opt covers name with
      | Some cubes -> cubes
      | None ->
          let cubes = T.isop (Cell.Cells.tt gate.G.cell) in
          Hashtbl.replace covers name cubes;
          cubes
    in
    let literals (c : M.cell) cube =
      List.concat
        (List.mapi
           (fun pin net ->
             let row = (net * chunk_words) lsl 1 in
             if (cube.T.pos lsr pin) land 1 = 1 then [ row ]
             else if (cube.T.neg lsr pin) land 1 = 1 then [ row lor 1 ]
             else [])
           (Array.to_list c.M.inputs))
    in
    let cells =
      Array.map (fun (c : M.cell) -> List.map (literals c) (cover_of c.M.gate)) t.M.cells
    in
    let cubes = Array.of_list (List.concat (Array.to_list cells)) in
    let offsets lengths =
      let first = Array.make (Array.length lengths + 1) 0 in
      Array.iteri (fun i n -> first.(i + 1) <- first.(i) + n) lengths;
      first
    in
    {
      out_rows = Array.map (fun (c : M.cell) -> c.M.output * chunk_words) t.M.cells;
      cell_first = offsets (Array.map List.length cells);
      cube_first = offsets (Array.map List.length cubes);
      lits = Array.of_list (List.concat (Array.to_list cubes));
    }

  let eval p (buf : rows) ~words =
    let cell_first = p.cell_first and cube_first = p.cube_first and lits = p.lits in
    for c = 0 to Array.length p.out_rows - 1 do
      let out = p.out_rows.(c) in
      let k0 = cell_first.(c) and k1 = cell_first.(c + 1) in
      for w = 0 to words - 1 do
        let acc = ref 0L in
        for k = k0 to k1 - 1 do
          let prod = ref (-1L) in
          for l = Array.unsafe_get cube_first k to Array.unsafe_get cube_first (k + 1) - 1 do
            let lit = Array.unsafe_get lits l in
            let v = A1.unsafe_get buf ((lit lsr 1) + w) in
            prod := Int64.logand !prod (Int64.logxor v (Int64.of_int (-(lit land 1))))
          done;
          acc := Int64.logor !acc !prod
        done;
        A1.unsafe_set buf (out + w) !acc
      done
    done

  let scratch (t : M.t) : rows =
    let buf = A1.create Bigarray.int64 Bigarray.c_layout (t.M.num_nets * chunk_words) in
    A1.fill buf 0L;
    Array.iter
      (fun (net, b) -> if b then A1.fill (A1.sub buf (net * chunk_words) chunk_words) (-1L))
      t.M.const_nets;
    buf

  let iter_chunks ~lo ~len f =
    let w0 = ref lo in
    while !w0 < lo + len do
      let words = min chunk_words (lo + len - !w0) in
      f ~w0:!w0 ~words;
      w0 := !w0 + words
    done

  let sweep ?domains ~nwords ~init piece =
    let states = Array.make Runtime.Dpool.max_domains None in
    ignore
      (Runtime.Dpool.run ?domains ~units:nwords (fun ~worker ~lo ~len ->
           let st =
             match states.(worker) with
             | Some st -> st
             | None ->
                 let st = init () in
                 states.(worker) <- Some st;
                 st
           in
           piece st ~lo ~len));
    List.filter_map Fun.id (Array.to_list states)

  type activity = { ones : int array; toggles : int array }

  type counter = {
    buf : rows;
    masks : rows;
    c_ones : int array;
    c_toggles : int array;
    carry : int array;
  }

  let[@inline] popcount x =
    let x = Int64.sub x (Int64.logand (Int64.shift_right_logical x 1) 0x5555555555555555L) in
    let x =
      Int64.add
        (Int64.logand x 0x3333333333333333L)
        (Int64.logand (Int64.shift_right_logical x 2) 0x3333333333333333L)
    in
    let x = Int64.logand (Int64.add x (Int64.shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
    Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56)

  let count st ~nets ~words =
    let buf = st.buf and masks = st.masks in
    for net = 0 to nets - 1 do
      let row = net * chunk_words in
      let ones = ref 0 and toggles = ref 0 in
      let prev = ref (Int64.of_int st.carry.(net)) in
      for j = 0 to words - 1 do
        let x = A1.unsafe_get buf (row + j) in
        let d = Int64.logxor x (Int64.logor (Int64.shift_left x 1) !prev) in
        ones := !ones + popcount (Int64.logand x (A1.unsafe_get masks j));
        toggles := !toggles + popcount (Int64.logand d (A1.unsafe_get masks (chunk_words + j)));
        prev := Int64.shift_right_logical x 63
      done;
      st.c_ones.(net) <- st.c_ones.(net) + !ones;
      st.c_toggles.(net) <- st.c_toggles.(net) + !toggles;
      st.carry.(net) <- Int64.to_int !prev
    done

  let activity ?domains ?(seed = 42L) (t : M.t) ~patterns =
    let p = lower t in
    let nets = t.M.num_nets in
    let nwords = (patterns + 63) / 64 in
    let wpv = max 1 nwords in
    let tail = B.tail_mask patterns in
    let stimulate (buf : rows) ~w0 ~words =
      Array.iteri
        (fun i (_, net) ->
          let rng = Logic.Prng.create seed in
          Logic.Prng.jump rng ((i * wpv) + w0);
          let row = net * chunk_words in
          for j = 0 to words - 1 do
            A1.unsafe_set buf (row + j) (Logic.Prng.next64 rng)
          done)
        t.M.pi_nets;
      eval p buf ~words
    in
    let init () =
      {
        buf = scratch t;
        masks = A1.create Bigarray.int64 Bigarray.c_layout (2 * chunk_words);
        c_ones = Array.make nets 0;
        c_toggles = Array.make nets 0;
        carry = Array.make nets 0;
      }
    in
    let counters =
      sweep ?domains ~nwords ~init (fun st ~lo ~len ->
          if lo > 0 then begin
            stimulate st.buf ~w0:(lo - 1) ~words:1;
            for net = 0 to nets - 1 do
              st.carry.(net) <-
                Int64.to_int
                  (Int64.shift_right_logical (A1.unsafe_get st.buf (net * chunk_words)) 63)
            done
          end;
          iter_chunks ~lo ~len (fun ~w0 ~words ->
              for j = 0 to words - 1 do
                let w = w0 + j in
                let valid = if w = nwords - 1 then tail else -1L in
                A1.unsafe_set st.masks j valid;
                A1.unsafe_set st.masks (chunk_words + j)
                  (if w = 0 then Int64.logand valid (-2L) else valid)
              done;
              stimulate st.buf ~w0 ~words;
              count st ~nets ~words))
    in
    let sum field =
      let total = Array.make nets 0 in
      List.iter
        (fun st -> Array.iteri (fun net v -> total.(net) <- total.(net) + v) (field st))
        counters;
      total
    in
    { ones = sum (fun st -> st.c_ones); toggles = sum (fun st -> st.c_toggles) }
end

let mapped_of nl =
  let aig = Aigs.Opt.resyn2rs (A.of_netlist nl) in
  Techmap.Mapper.map (Techmap.Matchlib.build G.generalized_cntfet) aig

let mult4 = lazy (mapped_of (Circuits.Multiplier.generate ~width:4))
let mult8 = lazy (mapped_of (Circuits.Multiplier.generate ~width:8))

(* Runs first, in a fresh process: nothing earlier has grown the heap, so
   a kernel that materialized per-node vectors (tens of MB of boxed words
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

(* 1, a partial word, exact words, one 64-word chunk +- 1 word, and a
   partial tail word after several chunks (split across domains). *)
let pattern_counts = [ 1; 63; 64; 65; 4032; 4096; 4160; 70_001 ]

(* Fails on the first net whose counts read by literal differ from the
   expected ones. *)
let check_net_counts what (m : M.t) act ~ones ~toggles =
  Array.iteri
    (fun net lit ->
      if Act.ones act lit <> ones net || Act.toggles act lit <> toggles net then
        Alcotest.failf "%s, net %d (literal %d): ones %d toggles %d, expected %d and %d"
          what net lit (Act.ones act lit) (Act.toggles act lit) (ones net) (toggles net))
    m.M.net_lits

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
          let act = Act.sweep ~domains ~seed:13L m.M.subject ~patterns in
          check_net_counts
            (Printf.sprintf "%d patterns, %d domains" patterns domains)
            m act
            ~ones:(fun net -> B.popcount values.(net))
            ~toggles:(fun net -> B.transitions values.(net)))
        [ 1; 2; 4 ])
    pattern_counts

(* Every suite circuit, mapped with the three built-in families and the
   PTL family from its library file: one sweep of the subject, read by
   net literal, on 1, 2 or 4 domains, gives each netlist exactly the
   counts of its own sweep (whose counts do not depend on the domain
   count, so it runs on one). *)
let suite_counts_match_reference () =
  let ptl =
    match Cell.Libfile.load_file "../data/libraries/ptl-ambipolar.genlibp" with
    | Ok lib -> lib
    | Error e -> Alcotest.failf "ptl: %a" Runtime.Cnt_error.pp e
  in
  let mls = List.map Techmap.Matchlib.build (G.all_libraries @ [ ptl ]) in
  List.iter
    (fun (entry : Circuits.Suite.entry) ->
      let aig = Aigs.Opt.resyn2rs (A.of_netlist (entry.Circuits.Suite.generate ())) in
      let subject = Techmap.Mapper.subject aig in
      let mapped = List.map (fun ml -> Techmap.Mapper.map_subject ml subject) mls in
      List.iter
        (fun patterns ->
          let references =
            List.map
              (fun m -> (m, Reference_activity.activity ~domains:1 ~seed:7L m ~patterns))
              mapped
          in
          List.iter
            (fun domains ->
              let act = Act.sweep ~domains ~seed:7L aig ~patterns in
              List.iter
                (fun ((m : M.t), r) ->
                  check_net_counts
                    (Printf.sprintf "%s/%s, %d patterns, %d domains"
                       entry.Circuits.Suite.name m.M.lib.G.name patterns domains)
                    m act
                    ~ones:(fun net -> r.Reference_activity.ones.(net))
                    ~toggles:(fun net -> r.Reference_activity.toggles.(net)))
                references)
            [ 1; 2; 4 ])
        [ 1; 63; 64; 65; 4096; 4160; 70_001 ])
    Circuits.Suite.all

(* Rail-tied nets read literal 0 or 1: all-zero or all-one, never
   toggling. *)
let constant_nets_counted () =
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  A.add_output aig "y" (A.mk_and aig a b);
  A.add_output aig "hi" A.const_true;
  A.add_output aig "lo" A.const_false;
  let m = Techmap.Mapper.map (Techmap.Matchlib.build G.generalized_cntfet) aig in
  Alcotest.(check int) "two rail-tied nets" 2 (Array.length m.M.const_nets);
  let act = Act.sweep ~domains:2 aig ~patterns:70_001 in
  let r = Reference_activity.activity ~domains:2 m ~patterns:70_001 in
  Array.iter
    (fun (net, high) ->
      Alcotest.(check int) "literal" (if high then A.const_true else A.const_false)
        m.M.net_lits.(net);
      Alcotest.(check int) "ones" (if high then 70_001 else 0) (Act.ones act m.M.net_lits.(net));
      Alcotest.(check int) "toggles" 0 (Act.toggles act m.M.net_lits.(net));
      Alcotest.(check int) "ones = reference" r.Reference_activity.ones.(net)
        (Act.ones act m.M.net_lits.(net)))
    m.M.const_nets

let patterns_below_one_rejected () =
  let m = Lazy.force mult4 in
  List.iter
    (fun patterns ->
      let rejects what f =
        match f () with
        | _ -> Alcotest.failf "%s accepted %d patterns" what patterns
        | exception Invalid_argument _ -> ()
      in
      rejects "Estimate.run" (fun () -> ignore (E.run ~patterns m));
      rejects "Estimate.simulate" (fun () -> ignore (E.simulate ~patterns m.M.subject));
      rejects "Activity.sweep" (fun () -> ignore (Act.sweep m.M.subject ~patterns)))
    [ 0; -5 ]

(* The per-family half over a shared sweep is the one-call estimate, and
   refuses counts of another AIG. *)
let of_activity_is_run () =
  let m = Lazy.force mult4 in
  let r = E.run ~patterns:70_001 ~seed:3L m in
  let act = E.simulate ~patterns:70_001 ~seed:3L m.M.subject in
  Alcotest.(check bool) "same report" true (r = E.of_activity act m);
  let other = E.simulate ~patterns:64 (Lazy.force mult8).M.subject in
  match E.of_activity other m with
  | _ -> Alcotest.fail "counts of another AIG accepted"
  | exception Invalid_argument _ -> ()

(* --- closed-form oracles ------------------------------------------- *)

(* Standard deviation of a toggle-rate estimate over [n] patterns of a
   signal whose values are independent with P(1) = p: consecutive toggle
   indicators overlap in one pattern, which adds 2 (pq - alpha^2) per
   pair to the variance of alpha = 2pq. *)
let toggle_sigma ~p ~n =
  let q = 1.0 -. p in
  let alpha = 2.0 *. p *. q in
  sqrt (((alpha *. (1.0 -. alpha)) +. (2.0 *. ((p *. q) -. (alpha *. alpha)))) /. float_of_int (n - 1))

let within_4sigma what ~expected ~sigma got =
  if Float.abs (got -. expected) > 4.0 *. sigma then
    Alcotest.failf "%s: %.6f, expected %.6f +- 4 x %.2g" what got expected sigma

(* Every node of the subject AIGs whose cone reaches at most 12 inputs:
   its exact 1-probability under uniform inputs is the density of its
   truth table over those inputs ({!Aigs.Aig.cone_tt}), and its
   Monte-Carlo count at the paper's 640 K patterns must lie within 4
   sigma of it, as must its toggle rate of 2p(1 - p). *)
let node_probabilities_exact () =
  let n = E.default_patterns in
  let max_support = 12 in
  List.iter
    (fun (name, aig) ->
      let act = Act.sweep aig ~patterns:n in
      (* PI support per node, ascending; None once it exceeds the bound. *)
      let support = Array.make (A.num_nodes aig) (Some []) in
      for i = 1 to A.num_inputs aig do
        support.(i) <- Some [ i ]
      done;
      let checked = ref 0 in
      for node = A.num_inputs aig + 1 to A.num_nodes aig - 1 do
        let fanin f = support.(A.node_of_lit (f aig node)) in
        support.(node) <-
          (match (fanin A.fanin0, fanin A.fanin1) with
          | Some s0, Some s1 ->
              let s = List.sort_uniq compare (s0 @ s1) in
              if List.length s <= max_support then Some s else None
          | _ -> None);
        match support.(node) with
        | None -> ()
        | Some s ->
            incr checked;
            let leaves = Array.of_list (List.map (fun i -> A.lit_of_node i false) s) in
            let tt = A.cone_tt aig node leaves in
            let p =
              float_of_int (Logic.Truthtable.count_ones tt)
              /. float_of_int (1 lsl List.length s)
            in
            let lit = A.lit_of_node node false in
            let what = Printf.sprintf "%s node %d" name node in
            within_4sigma (what ^ " probability") ~expected:p
              ~sigma:(sqrt (p *. (1.0 -. p) /. float_of_int n))
              (float_of_int (Act.ones act lit) /. float_of_int n);
            within_4sigma (what ^ " toggle rate")
              ~expected:(2.0 *. p *. (1.0 -. p))
              ~sigma:(toggle_sigma ~p ~n)
              (float_of_int (Act.toggles act lit) /. float_of_int (n - 1))
      done;
      if !checked = 0 then Alcotest.failf "%s: no node with a small support" name)
    [
      ("mult4", (Lazy.force mult4).M.subject);
      ("C1908", Aigs.Opt.resyn2rs (A.of_netlist ((Circuits.Suite.find "C1908").Circuits.Suite.generate ())));
    ]

(* A one-gate netlist through the mapper: the AIG of [y = f(a, b)] maps to
   the single library gate [name]. *)
let one_gate name build =
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  A.add_output aig "y" (build aig a b);
  let m = Techmap.Mapper.map (Techmap.Matchlib.build G.generalized_cntfet) aig in
  Alcotest.(check (list (pair string int))) "one gate" [ (name, 1) ] (M.gate_histogram m);
  m

let one_gate_oracle name build () =
  let m = one_gate name build in
  let n = E.default_patterns in
  let tt = Cell.Cells.tt (G.find_gate G.generalized_cntfet name).G.cell in
  let act = E.simulate ~patterns:n m.M.subject in
  let rate net = float_of_int (Act.toggles act m.M.net_lits.(net)) /. float_of_int (n - 1) in
  let prob net = float_of_int (Act.ones act m.M.net_lits.(net)) /. float_of_int n in
  let p_out = float_of_int (Logic.Truthtable.count_ones tt) /. 4.0 in
  let out = snd m.M.po_nets.(0) in
  within_4sigma (name ^ " output toggle rate")
    ~expected:(Power.Activity.toggle_alpha tt)
    ~sigma:(toggle_sigma ~p:p_out ~n) (rate out);
  Array.iter
    (fun (_, net) ->
      within_4sigma
        (Printf.sprintf "PI net %d probability" net)
        ~expected:0.5
        ~sigma:(sqrt (0.25 /. float_of_int n))
        (prob net);
      within_4sigma
        (Printf.sprintf "PI net %d toggle rate" net)
        ~expected:0.5 ~sigma:(toggle_sigma ~p:0.5 ~n) (rate net))
    m.M.pi_nets;
  (* The estimator consumes exactly these counts. *)
  let r = E.run m in
  let vdd = G.generalized_cntfet.G.tech.Spice.Tech.vdd in
  let loads = M.net_loads m in
  let dynamic = ref 0.0 in
  for net = 0 to m.M.num_nets - 1 do
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
          tc "suite x 4 families: literal counts = per-netlist sweep" `Slow
            suite_counts_match_reference;
          tc "constant nets" `Quick constant_nets_counted;
          tc "patterns < 1 rejected" `Quick patterns_below_one_rejected;
          tc "of_activity over a shared sweep = run" `Quick of_activity_is_run;
        ] );
      ( "oracle",
        [
          tc "node probability = cone truth-table density" `Slow node_probabilities_exact;
          tc "NAND2 toggle rate 0.375" `Slow
            (one_gate_oracle "NAND2" (fun aig a b -> A.lit_not (A.mk_and aig a b)));
          tc "XOR2 toggle rate 0.5" `Slow (one_gate_oracle "XOR2" A.mk_xor);
        ] );
    ]
