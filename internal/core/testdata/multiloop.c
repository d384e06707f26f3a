float arr[50];
float mx = arr[0];
bool pred = false;
float A[64];
for (i = 1; i < 50; i++) {
	pred = mx < arr[i];
	if (pred) mx = arr[i];
}
for (k = 0; k < 4; k++) {
	for (i = 2; i < 50; i++) {
		A[i] = A[i-1] + A[i-2] + A[i+1] + A[i+2];
	}
}
