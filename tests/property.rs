//! Cross-crate property tests: randomized invariants over the compiler,
//! the codec stack and the protocol layers.
//!
//! These used to be `proptest` strategies; they are now deterministic
//! seeded-DRBG loops (the workspace builds without registry access). Each
//! test derives its inputs from a fixed `HmacDrbg` seed, so failures
//! reproduce exactly.

#![forbid(unsafe_code)]
use confide::ccle::codec::{decode, decode_public, encode, EncryptionContext};
use confide::ccle::parse_schema;
use confide::ccle::value::Value;
use confide::core::receipt::Receipt;
use confide::crypto::envelope::{derive_k_tx, Envelope, EnvelopeKeyPair};
use confide::crypto::HmacDrbg;

// ---- Compiler equivalence: random arithmetic programs behave the same on
// both backends ----

/// A tiny random expression language rendered to CCL.
#[derive(Debug, Clone)]
enum RExpr {
    Lit(i32),
    Input, // atoi(input())
    Add(Box<RExpr>, Box<RExpr>),
    Sub(Box<RExpr>, Box<RExpr>),
    Mul(Box<RExpr>, Box<RExpr>),
    Div(Box<RExpr>, Box<RExpr>),
    Rem(Box<RExpr>, Box<RExpr>),
    Lt(Box<RExpr>, Box<RExpr>),
    And(Box<RExpr>, Box<RExpr>),
    Shl(Box<RExpr>, u8),
}

impl RExpr {
    fn to_ccl(&self) -> String {
        match self {
            RExpr::Lit(v) => {
                if *v < 0 {
                    format!("(0 - {})", -(*v as i64))
                } else {
                    v.to_string()
                }
            }
            RExpr::Input => "x".to_string(),
            RExpr::Add(a, b) => format!("({} + {})", a.to_ccl(), b.to_ccl()),
            RExpr::Sub(a, b) => format!("({} - {})", a.to_ccl(), b.to_ccl()),
            RExpr::Mul(a, b) => format!("({} * {})", a.to_ccl(), b.to_ccl()),
            RExpr::Div(a, b) => {
                format!(
                    "({} / (({}) * ({}) + 1))",
                    a.to_ccl(),
                    b.to_ccl(),
                    b.to_ccl()
                )
            }
            RExpr::Rem(a, b) => {
                format!(
                    "({} % (({}) * ({}) + 1))",
                    a.to_ccl(),
                    b.to_ccl(),
                    b.to_ccl()
                )
            }
            RExpr::Lt(a, b) => format!("({} < {})", a.to_ccl(), b.to_ccl()),
            RExpr::And(a, b) => format!("({} & {})", a.to_ccl(), b.to_ccl()),
            RExpr::Shl(a, s) => format!("({} << {})", a.to_ccl(), s % 20),
        }
    }
}

/// Random expression generator over a seeded DRBG (replaces the old
/// `prop_recursive` strategy).
fn gen_rexpr(rng: &mut HmacDrbg, depth: u32) -> RExpr {
    if depth == 0 || rng.gen_range(4) == 0 {
        return if rng.gen_range(2) == 0 {
            RExpr::Lit(rng.gen_range(2000) as i32 - 1000)
        } else {
            RExpr::Input
        };
    }
    let a = Box::new(gen_rexpr(rng, depth - 1));
    let b = Box::new(gen_rexpr(rng, depth - 1));
    match rng.gen_range(8) {
        0 => RExpr::Add(a, b),
        1 => RExpr::Sub(a, b),
        2 => RExpr::Mul(a, b),
        3 => RExpr::Div(a, b),
        4 => RExpr::Rem(a, b),
        5 => RExpr::Lt(a, b),
        6 => RExpr::And(a, b),
        _ => RExpr::Shl(a, rng.gen_range(256) as u8),
    }
}

fn gen_vec(rng: &mut HmacDrbg, max_len: u64) -> Vec<u8> {
    let len = rng.gen_range(max_len) as usize;
    let mut v = vec![0u8; len];
    rng.fill(&mut v);
    v
}

fn gen_ascii(rng: &mut HmacDrbg, min: u64, max: u64) -> String {
    let len = (min + rng.gen_range(max - min + 1)) as usize;
    (0..len)
        .map(|_| (b'a' + rng.gen_range(26) as u8) as char)
        .collect()
}

#[test]
fn compiler_backends_agree_on_random_programs() {
    let mut rng = HmacDrbg::from_u64(0xccf0);
    for _ in 0..24 {
        let e = gen_rexpr(&mut rng, 3);
        let input = rng.gen_range(20_000) as i64 - 10_000;
        let src = format!(
            "export fn main() {{ let x: int = atoi(input()); ret(itoa({})); }}",
            e.to_ccl()
        );
        let input_bytes = input.to_string().into_bytes();

        let vm_code = confide::lang::build_vm(&src).unwrap();
        let vm = confide::vm::Vm::from_module(
            confide::vm::Module::decode(&vm_code).unwrap(),
            confide::vm::ExecConfig::default(),
        );
        let mut vh = confide::vm::MockHost {
            input: input_bytes.clone(),
            ..Default::default()
        };
        let mut mem = Vec::new();
        let vout = vm.invoke("main", &[], &mut vh, &mut mem).unwrap();

        let evm_code = confide::lang::build_evm(&src).unwrap();
        let evm = confide::evm::Evm::new(evm_code, confide::evm::EvmConfig::default());
        let mut eh = confide::evm::MockEvmHost::default();
        let eout = evm
            .run(&confide::lang::evm_calldata("main", &input_bytes), &mut eh)
            .unwrap();
        assert_eq!(vout.return_data, eout.return_data, "src: {src}");
    }
}

#[test]
fn fusion_never_changes_results() {
    let mut rng = HmacDrbg::from_u64(0xf510);
    for _ in 0..24 {
        let e = gen_rexpr(&mut rng, 3);
        let input = rng.gen_range(20_000) as i64 - 10_000;
        let src = format!(
            "export fn main() {{ let x: int = atoi(input()); let i: int = 0; let acc: int = 0; \
             while (i < 5) {{ acc = acc + ({}); i = i + 1; }} ret(itoa(acc)); }}",
            e.to_ccl()
        );
        let code = confide::lang::build_vm(&src).unwrap();
        let module = confide::vm::Module::decode(&code).unwrap();
        let mut outs = Vec::new();
        for fusion in [false, true] {
            let cfg = confide::vm::ExecConfig {
                fusion,
                ..Default::default()
            };
            let vm = confide::vm::Vm::from_module(module.clone(), cfg);
            let mut host = confide::vm::MockHost {
                input: input.to_string().into_bytes(),
                ..Default::default()
            };
            let mut mem = Vec::new();
            outs.push(
                vm.invoke("main", &[], &mut host, &mut mem)
                    .unwrap()
                    .return_data,
            );
        }
        assert_eq!(&outs[0], &outs[1], "src: {src}");
    }
}

#[test]
fn envelope_protocol_round_trips_any_payload() {
    let mut meta = HmacDrbg::from_u64(0xe5fe);
    for _ in 0..32 {
        let payload = gen_vec(&mut meta, 2000);
        let mut rng = HmacDrbg::from_u64(meta.gen_u64());
        let kp = EnvelopeKeyPair::generate(&mut rng);
        let k_tx = rng.gen32();
        let env = Envelope::seal(&kp.public(), &k_tx, b"aad", &payload, &mut rng).unwrap();
        let decoded = Envelope::decode(&env.encode()).unwrap();
        let (k, body) = decoded.open(&kp, b"aad").unwrap();
        assert_eq!(k, k_tx);
        assert_eq!(body, payload);
    }
}

#[test]
fn k_tx_derivation_is_injective_in_practice() {
    let mut rng = HmacDrbg::from_u64(0x14f0);
    for _ in 0..64 {
        let root = rng.gen32();
        let h1 = rng.gen32();
        let h2 = rng.gen32();
        if h1 == h2 {
            continue;
        }
        assert_ne!(derive_k_tx(&root, &h1), derive_k_tx(&root, &h2));
    }
}

#[test]
fn receipts_round_trip_and_bind_to_tx() {
    let mut meta = HmacDrbg::from_u64(0x4ec1);
    for _ in 0..32 {
        let ret_data = gen_vec(&mut meta, 500);
        let log_count = meta.gen_range(5) as usize;
        let logs: Vec<Vec<u8>> = (0..log_count).map(|_| gen_vec(&mut meta, 64)).collect();
        let tx_hash = meta.gen32();
        let k_tx = meta.gen32();
        let receipt = Receipt {
            tx_hash,
            sender: [1u8; 32],
            contract: [2u8; 32],
            success: true,
            return_data: ret_data,
            logs,
        };
        let mut rng = HmacDrbg::from_u64(meta.gen_u64());
        let sealed = receipt.seal(&k_tx, &mut rng).unwrap();
        assert_eq!(Receipt::open(&sealed, &k_tx, &tx_hash).unwrap(), receipt);
        let mut other = tx_hash;
        other[0] ^= 1;
        assert!(Receipt::open(&sealed, &k_tx, &other).is_err());
    }
}

#[test]
fn ccle_round_trips_random_account_maps() {
    let schema = parse_schema(
        r#"
        attribute "map";
        attribute "confidential";
        table Account { user_id: string; org: string(confidential); bal: ulong(confidential); }
        table Root { accounts: [Account](map); }
        root_type Root;
        "#,
    )
    .unwrap();
    let mut meta = HmacDrbg::from_u64(0xcc1e);
    for _ in 0..16 {
        let n = meta.gen_range(8) as usize;
        let mut seen = std::collections::HashSet::new();
        let entries: Vec<(String, Value)> = (0..n)
            .map(|_| {
                (
                    gen_ascii(&mut meta, 1, 8),
                    gen_ascii(&mut meta, 1, 12),
                    meta.gen_range(1_000_000),
                )
            })
            .filter(|(id, _, _)| seen.insert(id.clone()))
            .map(|(id, org, bal)| {
                (
                    id.clone(),
                    Value::Table(vec![
                        ("user_id".into(), Value::Str(id)),
                        ("org".into(), Value::Str(org)),
                        ("bal".into(), Value::UInt(bal)),
                    ]),
                )
            })
            .collect();
        let root = Value::Table(vec![("accounts".into(), Value::Map(entries))]);
        let mut ctx = EncryptionContext::new(&[9u8; 32], b"prop-test", meta.gen_u64());
        let wire = encode(&schema, &root, Some(&mut ctx)).unwrap();
        assert_eq!(decode(&schema, &wire, &ctx).unwrap(), root.clone());
        // Audit view keeps ids public, hides org/bal.
        let public = decode_public(&schema, &wire).unwrap();
        if let Some(Value::Map(entries)) = public.get("accounts") {
            for (_, acct) in entries {
                assert!(matches!(acct.get("org"), Some(Value::Encrypted(_))));
                assert!(acct.get("user_id").unwrap().as_str().is_some());
            }
        }
    }
}

#[test]
fn merkle_roots_commit_to_full_state() {
    use confide::storage::{StateDb, WriteBatch};
    let state_of = |pairs: &[(Vec<u8>, Vec<u8>)]| {
        let mut batch = WriteBatch::new();
        for (k, v) in pairs {
            batch.put(k.clone(), v.clone());
        }
        let mut db = StateDb::new();
        db.apply_block(1, &batch).unwrap();
        db
    };
    let mut meta = HmacDrbg::from_u64(0x6e4c);
    for _ in 0..16 {
        let n = (meta.gen_range(29) + 1) as usize;
        let mut map = std::collections::BTreeMap::new();
        for _ in 0..n {
            let klen = meta.gen_range(15) + 1;
            let mut key = vec![0u8; klen as usize];
            meta.fill(&mut key);
            map.insert(key, gen_vec(&mut meta, 32));
        }
        let flip = meta.gen_range(256) as usize;
        let sorted: Vec<(Vec<u8>, Vec<u8>)> = map.into_iter().collect();
        let db = state_of(&sorted);
        let root = db.root();
        // Mutating any value changes the root.
        let idx = flip % sorted.len();
        let mut mutated = sorted.clone();
        mutated[idx].1.push(0xff);
        assert_ne!(state_of(&mutated).root(), root);
        // Proofs verify for every leaf.
        for (k, v) in &sorted {
            let (value, proof) = db.prove(k).unwrap();
            assert_eq!(&value, v);
            assert!(proof.verify(&root, k, v));
        }
    }
}
