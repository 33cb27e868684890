type cut = { leaves : int array }

(* 63-bit leaf signature: bit [leaf mod 63] for every leaf. A subset's
   signature is contained in its superset's, and the popcount of a union's
   signature never exceeds the union's size. *)
let signature leaves = Array.fold_left (fun s l -> s lor (1 lsl (l mod 63))) 0 leaves

let popcount x =
  let rec go x n = if x = 0 then n else go (x land (x - 1)) (n + 1) in
  go x 0

(* Merge two sorted leaf arrays into [buf]; the union's size, or -1 if it
   exceeds k. *)
let merge k buf a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i j n =
    if i = la && j = lb then n
    else if n = k then -1
    else if j = lb || (i < la && a.(i) < b.(j)) then begin
      buf.(n) <- a.(i);
      go (i + 1) j (n + 1)
    end
    else if i = la || b.(j) < a.(i) then begin
      buf.(n) <- b.(j);
      go i (j + 1) (n + 1)
    end
    else begin
      buf.(n) <- a.(i);
      go (i + 1) (j + 1) (n + 1)
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

(* [Stdlib.compare] on leaf arrays: length first, then lexicographic. *)
let compare_leaves (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else
    let rec go i =
      if i = la then 0
      else
        let c = Int.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let enumerate t ~k ~max_cuts =
  if k < 1 || max_cuts < 1 then invalid_arg "Cut.enumerate: k and max_cuts must be >= 1";
  let n = Aig.num_nodes t in
  let cuts = Array.make n [||] in
  let sigs = Array.make n [||] in
  let buf = Array.make k 0 in
  let kept = Array.make max_cuts [||] and kept_sig = Array.make max_cuts 0 in
  for node = 0 to n - 1 do
    let trivial = { leaves = [| node |] } in
    if not (Aig.is_and t node) then begin
      cuts.(node) <- [| trivial |];
      sigs.(node) <- [| signature trivial.leaves |]
    end
    else begin
      let f0 = Aig.node_of_lit (Aig.fanin0 t node) in
      let f1 = Aig.node_of_lit (Aig.fanin1 t node) in
      let c0 = cuts.(f0) and s0 = sigs.(f0) and c1 = cuts.(f1) and s1 = sigs.(f1) in
      let merged = Array.make (Array.length c0 * Array.length c1) [||] in
      let count = ref 0 in
      for i = 0 to Array.length c0 - 1 do
        for j = 0 to Array.length c1 - 1 do
          (* Quick reject: more than k signature bits, more than k leaves. *)
          if popcount (s0.(i) lor s1.(j)) <= k then begin
            let len = merge k buf c0.(i).leaves c1.(j).leaves in
            if len >= 0 then begin
              merged.(!count) <- Array.sub buf 0 len;
              incr count
            end
          end
        done
      done;
      let merged = Array.sub merged 0 !count in
      Array.sort compare_leaves merged;
      (* In this order a dominating cut (a strict subset) comes before every
         cut it dominates, and a duplicate after its first copy. Subset is
         transitive, so a candidate is dominated or a duplicate exactly when
         one of the cuts kept so far is a subset of it. *)
      let nkept = ref 0 and i = ref 0 in
      while !nkept < max_cuts - 1 && !i < !count do
        let c = merged.(!i) in
        let sc = signature c in
        let dominated = ref false and j = ref 0 in
        while (not !dominated) && !j < !nkept do
          if kept_sig.(!j) land lnot sc = 0 && subset kept.(!j) c then dominated := true;
          incr j
        done;
        if not !dominated then begin
          kept.(!nkept) <- c;
          kept_sig.(!nkept) <- sc;
          incr nkept
        end;
        incr i
      done;
      let m = !nkept in
      cuts.(node) <-
        Array.init (m + 1) (fun i -> if i < m then { leaves = kept.(i) } else trivial);
      sigs.(node) <-
        Array.init (m + 1) (fun i -> if i < m then kept_sig.(i) else signature trivial.leaves)
    end
  done;
  cuts

let cut_tt t node cut =
  Aig.cone_tt t node (Array.map (fun leaf -> Aig.lit_of_node leaf false) cut.leaves)

let mffc_size t fanouts node cut =
  (* The cone above the cut is every AND node reachable from [node] without
     passing through a leaf. Dereference it from the root: a cone node dies
     once all of its references come from dead nodes (the root's own
     references do not matter: it is the node being re-expressed). *)
  let in_cone nd = Aig.is_and t nd && not (Array.mem nd cut.leaves) in
  let remaining = Hashtbl.create 16 in
  let dead = ref 0 in
  let rec drop nd =
    incr dead;
    let release lit =
      let child = Aig.node_of_lit lit in
      if in_cone child then begin
        let r =
          Option.value (Hashtbl.find_opt remaining child) ~default:fanouts.(child) - 1
        in
        Hashtbl.replace remaining child r;
        if r = 0 then drop child
      end
    in
    release (Aig.fanin0 t nd);
    release (Aig.fanin1 t nd)
  in
  if in_cone node then drop node;
  !dead
