module A = Aigs.Aig
module Opt = Aigs.Opt
module Cut = Aigs.Cut
module T = Logic.Truthtable
module N = Nets.Netlist

let tt = Alcotest.testable T.pp T.equal

(* Function of every output in terms of all primary inputs (n <= 16). *)
let output_functions aig =
  let leaves = A.input_lits aig in
  Array.map
    (fun (name, lit) ->
      let base = A.cone_tt aig (A.node_of_lit lit) leaves in
      (name, if A.is_complemented lit then T.lognot base else base))
    (A.outputs aig)

let check_equiv msg a b =
  let fa = output_functions a and fb = output_functions b in
  Alcotest.(check int) (msg ^ ": same output count") (Array.length fa) (Array.length fb);
  Array.iteri
    (fun i (name, f) ->
      let name', f' = fb.(i) in
      Alcotest.(check string) (msg ^ ": output name") name name';
      Alcotest.check tt (msg ^ ": output " ^ name) f f')
    fa

(* Random AIG generator. *)
let random_aig rng ~inputs ~ands ~outs =
  let aig = A.create () in
  let lits = ref [] in
  for i = 1 to inputs do
    lits := A.add_input aig (Printf.sprintf "i%d" i) :: !lits
  done;
  let pick () =
    let all = Array.of_list !lits in
    let l = all.(Logic.Prng.int rng (Array.length all)) in
    if Logic.Prng.bool rng then A.lit_not l else l
  in
  for _ = 1 to ands do
    lits := A.mk_and aig (pick ()) (pick ()) :: !lits
  done;
  for o = 1 to outs do
    A.add_output aig (Printf.sprintf "o%d" o) (pick ())
  done;
  aig

(* ------------------------------------------------------------------ *)

let strash_dedupes () =
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  let x = A.mk_and aig a b and y = A.mk_and aig b a in
  Alcotest.(check int) "same literal" x y;
  Alcotest.(check int) "one and node" 1 (A.num_ands aig)

let constant_folding () =
  let aig = A.create () in
  let a = A.add_input aig "a" in
  Alcotest.(check int) "a & 0" A.const_false (A.mk_and aig a A.const_false);
  Alcotest.(check int) "a & 1" a (A.mk_and aig a A.const_true);
  Alcotest.(check int) "a & a" a (A.mk_and aig a a);
  Alcotest.(check int) "a & !a" A.const_false (A.mk_and aig a (A.lit_not a));
  Alcotest.(check int) "no nodes created" 0 (A.num_ands aig)

let xor_function () =
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  let x = A.mk_xor aig a b in
  A.add_output aig "x" x;
  let fns = output_functions aig in
  let _, f = fns.(0) in
  Alcotest.check tt "xor" (T.logxor (T.var 2 0) (T.var 2 1)) f

let mux_function () =
  let aig = A.create () in
  let s = A.add_input aig "s" in
  let a = A.add_input aig "a" in
  let b = A.add_input aig "b" in
  A.add_output aig "m" (A.mk_mux aig s a b);
  let _, f = (output_functions aig).(0) in
  let expected =
    T.logor
      (T.logand (T.lognot (T.var 3 0)) (T.var 3 1))
      (T.logand (T.var 3 0) (T.var 3 2))
  in
  Alcotest.check tt "mux" expected f

let rollback_works () =
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  let _x = A.mk_and aig a b in
  let ck = A.checkpoint aig in
  let _y = A.mk_and aig a (A.lit_not b) in
  let _z = A.mk_and aig (A.lit_not a) b in
  A.rollback aig ck;
  Alcotest.(check int) "back to one and" 1 (A.num_ands aig);
  (* The rolled-back structure can be rebuilt. *)
  let y2 = A.mk_and aig a (A.lit_not b) in
  Alcotest.(check bool) "fresh node" true (A.node_of_lit y2 >= A.num_inputs aig + 1)

let netlist_roundtrip () =
  let nl = N.create () in
  let a = N.add_input nl "a" in
  let b = N.add_input nl "b" in
  let c = N.add_input nl "c" in
  let x = N.add_node nl N.Xor [| a; b |] in
  let m = N.add_node nl N.Maj [| a; b; c |] in
  N.add_output nl "sum" (N.add_node nl N.Xor [| x; c |]);
  N.add_output nl "carry" m;
  let aig = A.of_netlist nl in
  let nl2 = A.to_netlist aig in
  (* exhaustive comparison *)
  for m = 0 to 7 do
    let ins = Array.init 3 (fun i -> (m lsr i) land 1 = 1) in
    Alcotest.(check (array bool))
      (Printf.sprintf "pattern %d" m)
      (N.eval nl ins) (N.eval nl2 ins)
  done

let cleanup_removes_dead () =
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  let x = A.mk_and aig a b in
  let _dead = A.mk_and aig a (A.lit_not b) in
  A.add_output aig "x" x;
  let clean = A.cleanup aig in
  Alcotest.(check int) "dead removed" 1 (A.num_ands clean);
  check_equiv "cleanup" aig clean

let full_adder_aig () =
  let aig = A.create () in
  let a = A.add_input aig "a" in
  let b = A.add_input aig "b" in
  let c = A.add_input aig "c" in
  let sum = A.mk_xor aig (A.mk_xor aig a b) c in
  let carry =
    A.mk_or aig (A.mk_and aig a b) (A.mk_or aig (A.mk_and aig a c) (A.mk_and aig b c))
  in
  A.add_output aig "sum" sum;
  A.add_output aig "carry" carry;
  aig

let cut_enumeration_trivial () =
  let aig = full_adder_aig () in
  let cuts = Cut.enumerate aig ~k:4 ~max_cuts:8 in
  for node = 0 to A.num_nodes aig - 1 do
    let has_trivial =
      Array.exists (fun (c : Cut.cut) -> c.leaves = [| node |]) cuts.(node)
    in
    Alcotest.(check bool) (Printf.sprintf "trivial cut of %d" node) true has_trivial
  done

let cut_tt_full_adder () =
  let aig = full_adder_aig () in
  let _, sum_lit = (A.outputs aig).(0) in
  let node = A.node_of_lit sum_lit in
  let cuts = Cut.enumerate aig ~k:3 ~max_cuts:16 in
  let input_cut =
    Array.to_list cuts.(node)
    |> List.find_opt (fun (c : Cut.cut) -> c.leaves = [| 1; 2; 3 |])
  in
  match input_cut with
  | None -> Alcotest.fail "expected the PI cut {a,b,c}"
  | Some cut ->
      let f = Cut.cut_tt aig node cut in
      let f = if A.is_complemented sum_lit then T.lognot f else f in
      let parity =
        List.fold_left (fun acc i -> T.logxor acc (T.var 3 i)) (T.const 3 false) [ 0; 1; 2 ]
      in
      Alcotest.check tt "sum is parity" parity f

(* ------------------------------------------------------------------ *)
(* Cut kernels *)

(* The list-based enumerator this library used before its sort-and-scan
   rewrite, kept verbatim as the reference the fast one must reproduce cut
   for cut, in the same order. *)
module Reference_cut = struct
  module Aig = A

  type cut = Cut.cut = { leaves : int array }

  (* Merge two sorted leaf arrays; None if the union exceeds k. *)
  let merge k a b =
    let la = Array.length a and lb = Array.length b in
    let out = Array.make (la + lb) 0 in
    let rec go i j n =
      if i = la && j = lb then Some (Array.sub out 0 n)
      else if n = k then None
      else begin
        let v, i', j' =
          if j = lb || (i < la && a.(i) < b.(j)) then (a.(i), i + 1, j)
          else if i = la || b.(j) < a.(i) then (b.(j), i, j + 1)
          else (a.(i), i + 1, j + 1)
        in
        out.(n) <- v;
        go i' j' (n + 1)
      end
    in
    go 0 0 0

  let subset a b =
    (* is a a subset of b? both sorted *)
    let la = Array.length a and lb = Array.length b in
    let rec go i j =
      if i = la then true
      else if j = lb then false
      else if a.(i) = b.(j) then go (i + 1) (j + 1)
      else if a.(i) > b.(j) then go i (j + 1)
      else false
    in
    go 0 0

  let enumerate t ~k ~max_cuts =
    let n = Aig.num_nodes t in
    let cuts = Array.make n [||] in
    for node = 0 to n - 1 do
      let trivial = { leaves = [| node |] } in
      if not (Aig.is_and t node) then cuts.(node) <- [| trivial |]
      else begin
        let f0 = Aig.node_of_lit (Aig.fanin0 t node) in
        let f1 = Aig.node_of_lit (Aig.fanin1 t node) in
        let acc = ref [] in
        Array.iter
          (fun c0 ->
            Array.iter
              (fun c1 ->
                match merge k c0.leaves c1.leaves with
                | None -> ()
                | Some leaves -> acc := { leaves } :: !acc)
              cuts.(f1))
          cuts.(f0);
        (* Deduplicate and drop dominated cuts (supersets of another cut). *)
        let all = List.sort_uniq compare !acc in
        let irredundant =
          List.filter
            (fun c ->
              not
                (List.exists (fun c' -> c' <> c && subset c'.leaves c.leaves) all))
            all
        in
        let by_size = List.sort (fun a b -> compare (Array.length a.leaves) (Array.length b.leaves)) irredundant in
        let kept =
          let rec take n = function
            | [] -> []
            | _ when n = 0 -> []
            | c :: rest -> c :: take (n - 1) rest
          in
          take (max_cuts - 1) by_size
        in
        cuts.(node) <- Array.of_list (kept @ [ trivial ])
      end
    done;
    cuts
end

let suite_aigs =
  lazy
    (List.map
       (fun (e : Circuits.Suite.entry) -> (e.Circuits.Suite.name, A.of_netlist (e.generate ())))
       Circuits.Suite.all)

let cuts_match_reference () =
  List.iter
    (fun (name, aig) ->
      List.iter
        (fun (k, max_cuts) ->
          let fast = Cut.enumerate aig ~k ~max_cuts in
          let reference = Reference_cut.enumerate aig ~k ~max_cuts in
          Array.iteri
            (fun node (cuts : Cut.cut array) ->
              if cuts <> reference.(node) then
                Alcotest.failf "%s (k=%d, max_cuts=%d): cuts of node %d differ" name k
                  max_cuts node)
            fast)
        [ (4, 8); (8, 4); (6, 10) ])
    (Lazy.force suite_aigs)

let cut_limits_rejected () =
  let aig = full_adder_aig () in
  List.iter
    (fun (k, max_cuts) ->
      match Cut.enumerate aig ~k ~max_cuts with
      | _ -> Alcotest.failf "k=%d max_cuts=%d accepted" k max_cuts
      | exception Invalid_argument _ -> ())
    [ (0, 8); (4, 0); (4, -1) ];
  (* max_cuts = 1 keeps only the trivial cut. *)
  Array.iteri
    (fun node (cuts : Cut.cut array) ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d: only the trivial cut" node)
        true
        (cuts = [| { Cut.leaves = [| node |] } |]))
    (Cut.enumerate aig ~k:4 ~max_cuts:1)

let mffc_shared_and_private () =
  (* x = a&b is private to r1 = x&c; y = b&c is shared by r1' = y&a and the
     output z = y&d. The root r = r1 & r1'. *)
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  let c = A.add_input aig "c" and d = A.add_input aig "d" in
  let x = A.mk_and aig a b and y = A.mk_and aig b c in
  let r1 = A.mk_and aig x c and r2 = A.mk_and aig y a in
  let r = A.mk_and aig r1 r2 in
  let z = A.mk_and aig y d in
  A.add_output aig "r" r;
  A.add_output aig "z" z;
  let fanouts = A.fanout_counts aig in
  let node = A.node_of_lit in
  let size leaves = Cut.mffc_size aig fanouts (node r) { Cut.leaves } in
  let inputs = Array.map node [| a; b; c |] in
  (* Over the inputs: r, r1, x and r2 die; y survives through z. *)
  Alcotest.(check int) "cut {a,b,c}" 4 (size inputs);
  Alcotest.(check int) "cut {r1,r2}" 1 (size [| node r1; node r2 |]);
  Alcotest.(check int) "cut {x,c,y,a}" 3
    (size (Array.of_list (List.sort compare [ node x; node c; node y; node a ])));
  (* The node itself as its only leaf: nothing above the cut. *)
  Alcotest.(check int) "trivial cut" 0 (size [| node r |]);
  (* Over inputs for z: y has another reference (r2), so only z dies. *)
  Alcotest.(check int) "z over inputs" 1
    (Cut.mffc_size aig fanouts (node z) { Cut.leaves = Array.map node [| b; c; d |] })

(* [resyn2rs] on every suite circuit, pinned node for node: AND count,
   depth and an MD5 of the fanin literals of every AND node followed by
   the named output literals. *)
let aig_digest aig =
  let b = Buffer.create 4096 in
  for nd = A.num_inputs aig + 1 to A.num_nodes aig - 1 do
    Buffer.add_string b (Printf.sprintf "%d %d\n" (A.fanin0 aig nd) (A.fanin1 aig nd))
  done;
  Array.iter
    (fun (name, lit) -> Buffer.add_string b (Printf.sprintf "%s=%d\n" name lit))
    (A.outputs aig);
  Digest.to_hex (Digest.string (Buffer.contents b))

let resyn2rs_pinned =
  [
    ("C2670", 591, 38, "96b6498432a3738dc63150d8c1e29450");
    ("C1908", 195, 14, "17f06acd66b633c38df3bde757aabc65");
    ("C3540", 1074, 59, "6d099ee8330a256d2c1652bb3fda5f49");
    ("dalu", 1100, 55, "e623a9456594ecb15bcb5497afc3a193");
    ("C7552", 2029, 109, "02c5669abf7eb8e848244719699c8e34");
    ("C6288", 2334, 101, "677b11aa5673ac3e924f09bb5146182e");
    ("C5315", 1234, 74, "d15f0698e316b0117e1559dcf10744df");
    ("des", 2672, 27, "cd057113dbe668522f73aa47cf5cf6eb");
    ("i10", 1509, 137, "7385d72825aa8e517749c7f1aea42198");
    ("t481", 532, 63, "0da3895ff8097380529d75257e20fbb8");
    ("i8", 787, 89, "06f90b7e2b9efdc10532e21ea28e2531");
    ("C1355", 368, 17, "4eebced0767dc29f9b21c62ee23375f0");
  ]

let resyn2rs_suite_pinned () =
  List.iter
    (fun (name, ands, depth, digest) ->
      let opt = Opt.resyn2rs (List.assoc name (Lazy.force suite_aigs)) in
      Alcotest.(check int) (name ^ ": ands") ands (A.num_ands opt);
      Alcotest.(check int) (name ^ ": depth") depth (A.depth opt);
      Alcotest.(check string) (name ^ ": structure digest") digest (aig_digest opt))
    resyn2rs_pinned

let pass_preserves name pass =
  QCheck.Test.make ~count:60 ~name
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
      let rng = Logic.Prng.create (Int64.of_int (seed + 1)) in
      let aig = random_aig rng ~inputs:6 ~ands:40 ~outs:4 in
      let opt = pass aig in
      let fa = output_functions aig and fb = output_functions opt in
      Array.for_all2 (fun (_, f) (_, g) -> T.equal f g) fa fb)

let balance_not_deeper () =
  let rng = Logic.Prng.create 5L in
  for _ = 1 to 20 do
    let aig = random_aig rng ~inputs:6 ~ands:60 ~outs:3 in
    let bal = Opt.balance aig in
    Alcotest.(check bool)
      (Printf.sprintf "depth %d <= %d" (A.depth bal) (A.depth aig))
      true
      (A.depth bal <= A.depth aig)
  done

let balance_chain_depth () =
  (* A linear AND chain of 8 operands must balance to depth 3. *)
  let aig = A.create () in
  let ins = Array.init 8 (fun i -> A.add_input aig (Printf.sprintf "i%d" i)) in
  let chain = Array.fold_left (fun acc l -> A.mk_and aig acc l) A.const_true ins in
  A.add_output aig "o" chain;
  let bal = Opt.balance aig in
  Alcotest.(check int) "balanced depth" 3 (A.depth bal);
  check_equiv "balance chain" aig bal

let rewrite_reduces_redundancy () =
  (* Build a deliberately redundant structure: (a&b)|(a&!b) = a. *)
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  let o = A.mk_or aig (A.mk_and aig a b) (A.mk_and aig a (A.lit_not b)) in
  A.add_output aig "o" o;
  let opt = Opt.rewrite aig in
  check_equiv "rewrite redundancy" aig opt;
  Alcotest.(check int) "reduced to zero ands" 0 (A.num_ands opt)

let resyn_monotone_benefit () =
  let rng = Logic.Prng.create 77L in
  for _ = 1 to 5 do
    let aig = random_aig rng ~inputs:8 ~ands:120 ~outs:6 in
    let aig = A.cleanup aig in
    let opt = Opt.resyn2rs aig in
    check_equiv "resyn2rs" aig opt;
    Alcotest.(check bool)
      (Printf.sprintf "not larger: %d <= %d" (A.num_ands opt) (A.num_ands aig))
      true
      (A.num_ands opt <= A.num_ands aig)
  done

(* ------------------------------------------------------------------ *)
(* Aiger *)

let aiger_roundtrip_fa () =
  let aig = full_adder_aig () in
  let text = Aigs.Aiger.write_string aig in
  let aig2 = Aigs.Aiger.read_string text in
  check_equiv "aiger roundtrip" aig aig2;
  Alcotest.(check int) "same ands" (A.num_ands aig) (A.num_ands aig2);
  Alcotest.(check string) "input names preserved" "a" (A.input_name aig2 1)

let aiger_roundtrip_random =
  QCheck.Test.make ~count:50 ~name:"aiger roundtrip preserves function"
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
      let rng = Logic.Prng.create (Int64.of_int (seed + 5)) in
      let aig = A.cleanup (random_aig rng ~inputs:5 ~ands:30 ~outs:3) in
      let aig2 = Aigs.Aiger.read_string (Aigs.Aiger.write_string aig) in
      let fa = output_functions aig and fb = output_functions aig2 in
      Array.for_all2 (fun (_, f) (_, g) -> T.equal f g) fa fb)

let aiger_parse_errors () =
  let bad text =
    try
      ignore (Aigs.Aiger.read_string text);
      false
    with Aigs.Aiger.Parse_error _ -> true
  in
  Alcotest.(check bool) "garbage" true (bad "hello");
  Alcotest.(check bool) "latches" true (bad "aag 1 0 1 0 0\n2 3\n");
  Alcotest.(check bool) "truncated" true (bad "aag 3 1 0 1 1\n2\n")

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "aig"
    [
      ( "core",
        [
          Alcotest.test_case "strash dedupes" `Quick strash_dedupes;
          Alcotest.test_case "constant folding" `Quick constant_folding;
          Alcotest.test_case "xor function" `Quick xor_function;
          Alcotest.test_case "mux function" `Quick mux_function;
          Alcotest.test_case "rollback" `Quick rollback_works;
          Alcotest.test_case "netlist roundtrip" `Quick netlist_roundtrip;
          Alcotest.test_case "cleanup removes dead" `Quick cleanup_removes_dead;
        ] );
      ( "cuts",
        [
          Alcotest.test_case "trivial cut present" `Quick cut_enumeration_trivial;
          Alcotest.test_case "full-adder sum cut tt" `Quick cut_tt_full_adder;
          Alcotest.test_case "limits below 1 rejected" `Quick cut_limits_rejected;
          Alcotest.test_case "mffc shared and private fanins" `Quick mffc_shared_and_private;
          Alcotest.test_case "suite cuts = reference enumerator" `Slow cuts_match_reference;
        ] );
      ( "aiger",
        Alcotest.
          [
            test_case "full adder roundtrip" `Quick aiger_roundtrip_fa;
            test_case "parse errors" `Quick aiger_parse_errors;
          ]
        @ qt [ aiger_roundtrip_random ] );
      ( "opt",
        Alcotest.
          [
            test_case "balance chain depth" `Quick balance_chain_depth;
            test_case "balance not deeper" `Quick balance_not_deeper;
            test_case "rewrite removes redundancy" `Quick rewrite_reduces_redundancy;
            test_case "resyn2rs equivalence + benefit" `Slow resyn_monotone_benefit;
            test_case "resyn2rs suite pinned" `Slow resyn2rs_suite_pinned;
          ]
        @ qt
            [
              pass_preserves "balance preserves function" Opt.balance;
              pass_preserves "rewrite preserves function" (fun a -> Opt.rewrite a);
              pass_preserves "refactor preserves function" (fun a -> Opt.refactor a);
              pass_preserves "rewrite -z preserves function" (fun a ->
                  Opt.rewrite ~zero_cost:true a);
            ] );
    ]
