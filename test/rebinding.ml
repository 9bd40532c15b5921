(* Programs that bind one name more than once, in BEER, Pig and Hive. Only
   the final binding keeps the user's name: {!Ir.Builder} gives every
   superseded binding, a result that would overwrite a relation still
   read elsewhere, and every definition in a WHILE body, a fresh
   [<name>_<k>]. test_frontends checks
   what each computes; test_differential runs each under every mapping
   against the oracle, where two relations under one name would show
   up as a wrong answer. *)

open Relation

let table columns rows =
  Table.create
    (Schema.make
       (List.map (fun name -> { Schema.name; ty = Value.Tint }) columns))
    (List.map (fun row -> Array.of_list (List.map (fun v -> Value.Int v) row))
       rows)

let kv rows = table [ "k"; "v" ] (List.map (fun (k, v) -> [ k; v ]) rows)

(* the SSSP example of beer.mli: [dists] is bound twice in the body *)
let sssp =
  "dists = INPUT 'seeds';\n\
   edges = INPUT 'edges';\n\
   WHILE (CHANGES dists) MAXITER 50 {\n\
  \  step  = dists JOIN edges ON node = src;\n\
  \  cand  = MAP step SET cost = cost + weight;\n\
  \  next  = SELECT dst AS node, MIN(cost) AS cost FROM cand GROUP BY dst;\n\
  \  dists = next UNION dists;\n\
  \  dists = SELECT node, MIN(cost) AS cost FROM dists GROUP BY node;\n\
   }\n\
   OUTPUT dists;\n"

let sssp_inputs =
  [ ("seeds", table [ "node"; "cost" ] [ [ 1; 0 ] ]);
    ("edges",
     table [ "src"; "dst"; "weight" ]
       [ [ 1; 2; 3 ]; [ 2; 3; 1 ]; [ 1; 3; 7 ]; [ 3; 4; 2 ] ]) ]

(* the same loop over an [edges] with a column nothing reads: the
   optimizer prunes [label] inside the WHILE body, which must keep its
   carried pair *)
let sssp_label_inputs =
  [ ("seeds", table [ "node"; "cost" ] [ [ 1; 0 ] ]);
    ("edges",
     table [ "src"; "dst"; "weight"; "label" ]
       [ [ 1; 2; 3; 7 ]; [ 2; 3; 1; 7 ]; [ 1; 3; 7; 8 ]; [ 3; 4; 2; 9 ] ]) ]

(* a loop that raises every [v] below 5 to 4, one step an iteration *)
let raise_to_four =
  "WHILE (CHANGES d) MAXITER 20 {\n\
  \  n = MAP d SET v = v + 1;\n\
  \  m = n UNION d;\n\
  \  d = SELECT k, MAX(v) AS v FROM m WHERE v < 5 GROUP BY k;\n\
   }\n"

(* top level: the WHILE result rebinds a SELECT's name *)
let select_then_loop =
  "d = SELECT k, v FROM r WHERE v < 3;\n\
   OUTPUT d;\n" ^ raise_to_four ^ "OUTPUT d;\n"

(* the loop's input [d] is read again, as stored, after the loop *)
let input_after_loop =
  raise_to_four
  ^ "old = INPUT 'd';\n\
     delta = d DIFFERENCE old;\n\
     OUTPUT delta;\n"

(* the new [d] is defined before [e] reads the old one: each carried
   relation's new definition has a name of its own *)
let carried_out_of_order =
  "WHILE (CHANGES d) MAXITER 5 {\n\
  \  e = MAP d SET v = v + 1;\n\
  \  d = SELECT k, v FROM f;\n\
  \  f = DISTINCT e;\n\
   }\n\
   OUTPUT d;\n"

let pig_twice =
  "a = LOAD 'r';\n\
   b = FILTER a BY v > 1;\n\
   b = DISTINCT b;\n\
   b = FILTER b BY v < 9;\n\
   STORE b INTO 'out';\n"

let hive_twice =
  "SELECT k, v FROM r WHERE v > 1 AS x;\n\
   SELECT k, v FROM x WHERE v < 9 AS x;\n"

(* (label, graph, inputs) *)
let cases =
  let r = kv [ (1, 0); (2, 2); (3, 9); (4, 5); (4, 5) ] in
  [ ("beer sssp", (fun () -> Frontends.Beer.parse sssp), sssp_inputs);
    ("beer select then loop",
     (fun () -> Frontends.Beer.parse select_then_loop), [ ("r", r) ]);
    ("beer input after loop",
     (fun () -> Frontends.Beer.parse input_after_loop),
     [ ("d", kv [ (1, 0); (2, 2); (3, 9) ]) ]);
    ("beer carried out of order",
     (fun () -> Frontends.Beer.parse carried_out_of_order),
     [ ("d", kv [ (1, 0) ]); ("f", kv [ (1, 0); (2, 2); (2, 2) ]) ]);
    ("pig alias twice", (fun () -> Frontends.Pig.parse pig_twice),
     [ ("r", r) ]);
    ("hive name twice", (fun () -> Frontends.Hive.parse hive_twice),
     [ ("r", r) ]);
    ("beer sssp, unread edge column", (fun () -> Frontends.Beer.parse sssp),
     sssp_label_inputs) ]
