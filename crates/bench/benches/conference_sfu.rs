//! **Conference SFU** — one 4-party keypoint room, end to end, on
//! 100 Mbps links with one shared encoder. The measured and closed-form
//! room sizes are facts, made by `holo_bench::conference_sfu::facts`.

use holo_bench::conference_sfu::{make_pipeline, scene};
use holo_conf::{ParticipantConfig, Room, RoomConfig};
use holo_runtime::bench::Criterion;
use holo_runtime::{bench_group, bench_main};
use std::hint::black_box;

fn conference_sfu(c: &mut Criterion) {
    let scene = scene();
    let mut group = c.benchmark_group("conference_sfu");
    group.sample_size(10);
    group.bench_function("room4_keypoint", |b| {
        b.iter(|| {
            let room_cfg = RoomConfig {
                participants: ParticipantConfig::uniform_room(4, 100e6),
                frames: 4,
                share_encoder: true,
                ..Default::default()
            };
            let mut room = Room::new(room_cfg).unwrap();
            let mut pipelines = vec![make_pipeline("keypoint")];
            black_box(room.run(&scene, &mut pipelines).unwrap())
        })
    });
    group.finish();
}

bench_group!(benches, conference_sfu);
bench_main!(benches);
