int samples[40];
int taps[4];
int out[36];
int main() {
    for (int i = 0; i < 36; i++) {
        int acc = 0;
        for (int t = 0; t < 4; t++) {
            acc += samples[i + t] * taps[t];
        }
        out[i] = acc >> 2;
    }
    return out[0];
}
