//! Wall-clock microbenchmarks of the real components.
//!
//! These complement the figure harnesses (which use the calibrated virtual
//! clock) by measuring what this implementation actually costs on the host
//! machine: crypto primitives, VM dispatch with and without OPT4 fusion and
//! with/without ahead-of-time verification, code-cache effects, CCLe
//! field-level vs whole-state encryption, end-to-end engine execution, and
//! the per-block cost of the state root at growing state sizes.
//!
//! Uses the hermetic `confide_bench::harness` (criterion-free; see
//! DESIGN.md) so `cargo bench` works without registry access.

#![forbid(unsafe_code)]

use confide_bench::harness::{bb as black_box, BenchGroup};

use confide_ccle::codec::{encode, EncryptionContext};
use confide_ccle::parse_schema;
use confide_ccle::value::Value;
use confide_contracts::{abs, synthetic};
use confide_core::context::ExecContext;
use confide_core::engine::{EngineConfig, VmKind};
use confide_crypto::ed25519::SigningKey;
use confide_crypto::envelope::{Envelope, EnvelopeKeyPair};
use confide_crypto::gcm::AesGcm;
use confide_crypto::HmacDrbg;
use confide_storage::versioned::StateDb;
use confide_storage::WriteBatch;
use confide_vm::{ExecConfig, MockHost, Module, Prepared, Vm};

fn bench_crypto() {
    let mut g = BenchGroup::new("crypto");
    let gcm = AesGcm::new(&[7u8; 32]).unwrap();
    for size in [256usize, 4096] {
        let data = vec![0xabu8; size];
        g.throughput_bytes(size as u64);
        g.bench(&format!("aes256_gcm_seal/{size}"), || {
            gcm.seal(&[1u8; 12], b"aad", black_box(&data))
        });
    }
    let data4k = vec![0u8; 4096];
    g.throughput_bytes(4096);
    g.bench("sha256_4k", || confide_crypto::sha256(black_box(&data4k)));
    g.bench("keccak256_4k", || {
        confide_crypto::keccak256(black_box(&data4k))
    });
    g.throughput_bytes(0);
    let key = SigningKey::from_seed(&[1u8; 32]);
    let msg = b"a typical transaction body for signing";
    let sig = key.sign(msg);
    g.bench("ed25519_sign", || key.sign(black_box(msg)));
    g.bench("ed25519_verify", || {
        key.verifying_key().verify(black_box(msg), &sig).unwrap()
    });
    let mut rng = HmacDrbg::from_u64(1);
    let kp = EnvelopeKeyPair::generate(&mut rng);
    let k_tx = rng.gen32();
    let env = Envelope::seal(&kp.public(), &k_tx, b"", &vec![0u8; 512], &mut rng).unwrap();
    g.bench("envelope_open_asymmetric", || {
        env.open(black_box(&kp), b"").unwrap()
    });
    g.bench("envelope_open_body_symmetric", || {
        env.open_body(black_box(&k_tx), b"").unwrap()
    });
    g.finish();
}

fn bench_vms() {
    let mut g = BenchGroup::new("vm_vs_evm");
    let mut rng = HmacDrbg::from_u64(2);
    for (i, (name, src)) in synthetic::ALL.iter().enumerate() {
        let input = synthetic::input_for(i, &mut rng);
        let vm_code = confide_lang::build_vm(src).unwrap();
        let module = Module::decode(&vm_code).unwrap();
        let vm = Vm::from_module(module.clone(), ExecConfig::default());
        g.bench(&format!("confide_vm/{name}"), || {
            let mut host = MockHost {
                input: input.clone(),
                ..MockHost::default()
            };
            let mut mem = Vec::new();
            vm.invoke("main", &[], &mut host, &mut mem).unwrap()
        });
        // Ahead-of-time verified module: interpreter runs the unchecked
        // fast path (no per-dispatch stack/local bounds checks).
        let cfg = ExecConfig::default();
        let verified = Prepared::new_verified(Module::decode(&vm_code).unwrap(), &cfg).unwrap();
        let vvm = Vm::from_prepared(verified, cfg);
        g.bench(&format!("confide_vm_verified/{name}"), || {
            let mut host = MockHost {
                input: input.clone(),
                ..MockHost::default()
            };
            let mut mem = Vec::new();
            vvm.invoke("main", &[], &mut host, &mut mem).unwrap()
        });
        let evm_code = confide_lang::build_evm(src).unwrap();
        let evm = confide_evm::Evm::new(evm_code, confide_evm::EvmConfig::default());
        let calldata = confide_lang::evm_calldata("main", &input);
        g.bench(&format!("evm/{name}"), || {
            let mut host = confide_evm::MockEvmHost::default();
            evm.run(&calldata, &mut host).unwrap()
        });
        // OPT4 ablation on the real interpreter.
        let unfused = Vm::from_module(
            module.clone(),
            ExecConfig {
                fusion: false,
                ..ExecConfig::default()
            },
        );
        g.bench(&format!("confide_vm_no_fusion/{name}"), || {
            let mut host = MockHost {
                input: input.clone(),
                ..MockHost::default()
            };
            let mut mem = Vec::new();
            unfused.invoke("main", &[], &mut host, &mut mem).unwrap()
        });
    }
    g.finish();
}

fn bench_code_cache() {
    let mut g = BenchGroup::new("code_cache");
    let src = abs::abs_fb_src();
    let code = confide_lang::build_vm(&src).unwrap();
    g.bench("decode_prepare_miss", || {
        let module = Module::decode(black_box(&code)).unwrap();
        Prepared::new(module, &ExecConfig::default())
    });
    g.bench("decode_verify_prepare_miss", || {
        let module = Module::decode(black_box(&code)).unwrap();
        Prepared::new_verified(module, &ExecConfig::default()).unwrap()
    });
    let cache = confide_vm::CodeCache::new(true);
    cache.get_or_prepare(&code, &ExecConfig::default()).unwrap();
    g.bench("cache_hit", || {
        cache
            .get_or_prepare(black_box(&code), &ExecConfig::default())
            .unwrap()
    });
    g.finish();
}

fn bench_ccle() {
    let mut g = BenchGroup::new("ccle");
    let schema_partial = parse_schema(
        r#"
        attribute "confidential";
        table Rec { id: string; public_note: string; secret: string(confidential); }
        root_type Rec;
        "#,
    )
    .unwrap();
    let schema_full = parse_schema(
        r#"
        attribute "confidential";
        table Inner { id: string; public_note: string; secret: string; }
        table Rec { all: Inner(confidential); }
        root_type Rec;
        "#,
    )
    .unwrap();
    let note = "x".repeat(800);
    let secret = "s".repeat(200);
    let partial = Value::Table(vec![
        ("id".into(), Value::Str("rec-1".into())),
        ("public_note".into(), Value::Str(note.clone())),
        ("secret".into(), Value::Str(secret.clone())),
    ]);
    let full = Value::Table(vec![(
        "all".into(),
        Value::Table(vec![
            ("id".into(), Value::Str("rec-1".into())),
            ("public_note".into(), Value::Str(note)),
            ("secret".into(), Value::Str(secret)),
        ]),
    )]);
    {
        let mut ctx = EncryptionContext::new(&[1u8; 32], b"aad", 1);
        g.bench("field_level_encryption", || {
            encode(&schema_partial, black_box(&partial), Some(&mut ctx)).unwrap()
        });
    }
    {
        let mut ctx = EncryptionContext::new(&[1u8; 32], b"aad", 1);
        g.bench("whole_state_encryption", || {
            encode(&schema_full, black_box(&full), Some(&mut ctx)).unwrap()
        });
    }
    g.finish();
}

fn bench_engine() {
    let mut g = BenchGroup::new("engine");
    let engine = confide_bench::make_engine(true, EngineConfig::default(), 9);
    let code = confide_lang::build_vm(&abs::abs_fb_src()).unwrap();
    let contract = [0x70; 32];
    engine
        .deploy(contract, &code, VmKind::ConfideVm, true)
        .unwrap();
    let state = StateDb::new();
    let sender = [5u8; 32];
    let mut rng = HmacDrbg::from_u64(3);
    let req = abs::AbsRequest::random(&mut rng).to_fb();
    g.bench("abs_transfer_confidential_invoke", || {
        let mut ctx = ExecContext::new();
        for (k, v) in abs::genesis_state(&confide_crypto::hex(&sender)) {
            ctx.write(confide_core::engine::full_key(&contract, &k), Some(v));
        }
        engine
            .invoke_inner(
                &state,
                &mut ctx,
                &contract,
                "transfer",
                black_box(&req),
                &sender,
            )
            .unwrap()
    });
    g.finish();
}

/// `apply_block` of one 64-put block (balance overwrites of pseudo-random
/// live keys) against a state of 10k, 100k and 1M keys. The keys have the
/// engine's shape: a 32-byte contract address, then the contract's key.
fn bench_state() {
    let key = |i: u64| [&[0x42u8; 32][..], format!("bal:acct{i:07}").as_bytes()].concat();
    let mut g = BenchGroup::new("state");
    for keys in [10_000u64, 100_000, 1_000_000] {
        let mut genesis = WriteBatch::new();
        for i in 0..keys {
            genesis.put(key(i), i.to_string().into_bytes());
        }
        let mut state = StateDb::new();
        state.apply_block(1, &genesis).unwrap();
        drop(genesis);
        // A cheap LCG picks the keys, so the timing is the state's, not a
        // CSPRNG's.
        let mut pick = keys;
        let mut height = 1;
        g.bench(&format!("apply_block_64_puts/{keys}_keys"), || {
            height += 1;
            let mut batch = WriteBatch::new();
            for _ in 0..64 {
                pick = pick
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                batch.put(key((pick >> 33) % keys), height.to_string().into_bytes());
            }
            state.apply_block(height, black_box(&batch)).unwrap()
        });
    }
    g.finish();
}

fn main() {
    bench_crypto();
    bench_vms();
    bench_code_cache();
    bench_ccle();
    bench_engine();
    bench_state();
}
